#include "serve/oracle_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace irp {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

ClassifyKey make_classify_key(const RouteDecision& d,
                              const ScenarioOptions& opts) {
  ClassifyKey key;
  key.decider = d.decider;
  key.next_hop = d.next_hop;
  key.dest = d.dest_asn;
  key.prefix = d.dst_prefix;
  key.remaining_len = static_cast<std::uint32_t>(d.remaining_len);
  key.has_city = d.interconnect_city.has_value();
  key.city = key.has_city ? *d.interconnect_city : 0;
  key.scenario = static_cast<std::uint8_t>((opts.use_hybrid ? 1 : 0) |
                                           (opts.use_siblings ? 2 : 0) |
                                           (static_cast<int>(opts.psp) << 2));
  return key;
}

std::size_t ClassifyKeyHash::operator()(const ClassifyKey& k) const {
  std::uint64_t h = Ipv4PrefixHash{}(k.prefix);
  h = mix64(h ^ ((std::uint64_t{k.decider} << 32) | k.next_hop));
  h = mix64(h ^ ((std::uint64_t{k.dest} << 32) | k.remaining_len));
  h = mix64(h ^ ((std::uint64_t{k.city} << 8) |
                 (std::uint64_t{k.scenario} << 1) | (k.has_city ? 1 : 0)));
  return static_cast<std::size_t>(h);
}

ClassifyCache::ClassifyCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (shards == 0) shards = 1;
  if (capacity > 0 && shards > capacity) shards = capacity;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  per_shard_capacity_ = capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / shards);
}

void ClassifyCache::trim_locked(Shard& shard, std::size_t bound) {
  while (shard.lru.size() > bound) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ClassifyCache::set_capacity(std::size_t capacity) {
  const std::size_t shards = shards_.size();
  const std::size_t per_shard =
      capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / shards);
  capacity_.store(capacity, std::memory_order_relaxed);
  per_shard_capacity_.store(per_shard, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    trim_locked(*shard, per_shard);
  }
}

ClassifyCache::Shard& ClassifyCache::shard_for(const ClassifyKey& key) {
  return *shards_[ClassifyKeyHash{}(key) % shards_.size()];
}

std::optional<DecisionCategory> ClassifyCache::get(const ClassifyKey& key) {
  if (per_shard_capacity_.load(std::memory_order_relaxed) == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ClassifyCache::put(const ClassifyKey& key, DecisionCategory value) {
  const std::size_t bound =
      per_shard_capacity_.load(std::memory_order_relaxed);
  if (bound == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, value);
  shard.map.emplace(key, shard.lru.begin());
  trim_locked(shard, bound);
}

ClassifyCache::Stats ClassifyCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.capacity = capacity_.load(std::memory_order_relaxed);
  s.shards = shards_.size();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->map.size();
    s.evictions += shard->evictions;
  }
  return s;
}

OracleIndex::OracleIndex(const OracleSnapshot* snapshot,
                         OracleIndexConfig config)
    : snap_(snapshot),
      route_shards_(std::max<std::size_t>(1, config.route_shards)),
      cache_(config.cache_capacity, config.cache_shards) {
  IRP_CHECK(snap_ != nullptr, "oracle index requires a snapshot");

  // Rebuild the study views. Insertion through the same public mutators the
  // live pipeline uses guarantees the materialized state is identical to the
  // study's own products — the classifier then behaves identically too.
  for (const OracleSnapshot::RelationshipEntry& e : snap_->relationships)
    topo_.set(e.a, e.b, static_cast<InferredRel>(e.rel));
  for (const auto& group : snap_->sibling_groups) siblings_.add_group(group);
  for (const OracleSnapshot::HybridRecord& h : snap_->hybrid_entries)
    hybrid_.add(HybridEntry{h.a, h.b, h.city, static_cast<Relationship>(h.rel)});
  for (const auto& [provider, customer] : snap_->partial_transit)
    hybrid_.add_partial_transit(provider, customer);
  for (const OracleSnapshot::ObservationBlock& block : snap_->observations)
    for (const auto& [origin, neighbor] : block.pairs)
      observations_.add(origin, neighbor, block.prefix);

  classifier_ = std::make_unique<DecisionClassifier>(
      &topo_, snap_->num_ases, &hybrid_, &siblings_, &observations_);

  for (const OracleSnapshot::PrefixRoutes& pr : snap_->routes) {
    RouteShard& shard =
        route_shards_[Ipv4PrefixHash{}(pr.prefix) % route_shards_.size()];
    const bool inserted = shard.by_prefix.emplace(pr.prefix, &pr).second;
    IRP_CHECK(inserted, "oracle snapshot has duplicate prefix route blocks");
  }
}

DecisionCategory OracleIndex::classify(const RouteDecision& d,
                                       const ScenarioOptions& opts) const {
  const ClassifyKey key = make_classify_key(d, opts);
  if (const auto cached = cache_.get(key)) return *cached;
  const DecisionCategory category = classifier_->classify(d, opts);
  cache_.put(key, category);
  return category;
}

const OracleSnapshot::PrefixRoutes* OracleIndex::prefix_routes(
    const Ipv4Prefix& prefix) const {
  const RouteShard& shard =
      route_shards_[Ipv4PrefixHash{}(prefix) % route_shards_.size()];
  auto it = shard.by_prefix.find(prefix);
  return it == shard.by_prefix.end() ? nullptr : it->second;
}

const OracleSnapshot::RouteEntry* OracleIndex::route(
    Asn asn, const Ipv4Prefix& prefix) const {
  const OracleSnapshot::PrefixRoutes* pr = prefix_routes(prefix);
  if (pr == nullptr) return nullptr;
  auto it = std::lower_bound(
      pr->entries.begin(), pr->entries.end(), asn,
      [](const OracleSnapshot::RouteEntry& e, Asn a) { return e.asn < a; });
  if (it == pr->entries.end() || it->asn != asn) return nullptr;
  return &*it;
}

}  // namespace irp
