#include "serve/oracle_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace irp {

QueryType query_type(const OracleRequest& request) {
  return static_cast<QueryType>(request.index());
}

std::string_view query_type_name(QueryType type) {
  switch (type) {
    case QueryType::kClassify: return "classify";
    case QueryType::kAlternateRoutes: return "alternate_routes";
    case QueryType::kPspVisibility: return "psp_visibility";
    case QueryType::kRelationshipLookup: return "relationship";
  }
  IRP_UNREACHABLE("bad query type");
}

namespace {

struct TextRenderer {
  std::ostringstream out;

  void operator()(const ClassifyResponse& r) {
    out << "classify category=" << decision_category_name(r.category)
        << " best=" << (r.best ? 1 : 0) << " short=" << (r.is_short ? 1 : 0);
  }
  void operator()(const AlternateRoutesResponse& r) {
    if (!r.has_route) {
      out << "alternate_routes no-route";
      return;
    }
    out << "alternate_routes selected=[" << r.selected.to_string() << "]"
        << " next_hop=" << r.next_hop
        << " self=" << (r.self_originated ? 1 : 0) << " alternates="
        << r.alternates.size();
    for (const auto& alt : r.alternates)
      out << " {from=" << alt.from_asn << " path=[" << alt.path.to_string()
          << "]}";
  }
  void operator()(const PspVisibilityResponse& r) {
    out << "psp announced=" << (r.announced ? 1 : 0)
        << " announced_any=" << (r.announced_any ? 1 : 0) << " neighbors=[";
    for (std::size_t i = 0; i < r.neighbors.size(); ++i) {
      if (i > 0) out << ' ';
      out << r.neighbors[i];
    }
    out << "]";
  }
  void operator()(const RelationshipLookupResponse& r) {
    out << "relationship has_link=" << (r.has_link ? 1 : 0) << " rel="
        << (r.rel ? relationship_name(*r.rel) : std::string_view{"none"})
        << " siblings=" << (r.same_sibling_group ? 1 : 0);
  }
};

struct Evaluator {
  const OracleIndex* index;

  OracleResponse operator()(const ClassifyRequest& req) const {
    ClassifyResponse resp;
    resp.category = index->classify(req.decision, req.scenario);
    resp.best = resp.category == DecisionCategory::kBestShort ||
                resp.category == DecisionCategory::kBestLong;
    resp.is_short = resp.category == DecisionCategory::kBestShort ||
                    resp.category == DecisionCategory::kNonBestShort;
    return resp;
  }

  OracleResponse operator()(const AlternateRoutesRequest& req) const {
    AlternateRoutesResponse resp;
    const OracleSnapshot::RouteEntry* entry =
        index->route(req.asn, req.prefix);
    if (entry == nullptr) return resp;
    resp.has_route = true;
    resp.self_originated = entry->self_originated;
    resp.next_hop = entry->next_hop;
    resp.selected = index->paths().materialize(entry->selected);
    resp.alternates.reserve(entry->alternates.size());
    for (const OracleSnapshot::AlternateRoute& alt : entry->alternates) {
      AlternateRoutesResponse::Alternate out;
      out.path = index->paths().materialize(alt.path);
      out.from_asn = alt.from_asn;
      resp.alternates.push_back(std::move(out));
    }
    return resp;
  }

  OracleResponse operator()(const PspVisibilityRequest& req) const {
    PspVisibilityResponse resp;
    const BgpObservations& obs = index->observations();
    resp.announced = obs.announced(req.origin, req.neighbor, req.prefix);
    resp.announced_any = obs.announced_any(req.origin, req.neighbor);
    const auto neighbors = obs.neighbors_for(req.origin, req.prefix);
    resp.neighbors.assign(neighbors.begin(), neighbors.end());
    return resp;
  }

  OracleResponse operator()(const RelationshipLookupRequest& req) const {
    RelationshipLookupResponse resp;
    resp.has_link = index->topology().has_link(req.a, req.b);
    resp.rel = index->topology().relationship(req.a, req.b);
    resp.same_sibling_group = index->siblings().same_group(req.a, req.b);
    return resp;
  }
};

}  // namespace

std::string to_text(const OracleResponse& response) {
  TextRenderer renderer;
  std::visit(renderer, response);
  return renderer.out.str();
}

int LatencyHistogram::bucket_of(std::uint64_t nanos) {
  if (nanos < kSubBuckets) return static_cast<int>(nanos);
  // nanos in octave [2^e, 2^(e+1)); its top kSubBits bits below the leading
  // one pick the sub-bucket.
  const int e = static_cast<int>(std::bit_width(nanos)) - 1;
  const int sub = static_cast<int>((nanos >> (e - kSubBits)) &
                                   (kSubBuckets - 1));
  return kSubBuckets * (e - kSubBits + 1) + sub;
}

std::uint64_t LatencyHistogram::bucket_max(int bucket) {
  if (bucket < kSubBuckets) return static_cast<std::uint64_t>(bucket);
  const int e = bucket / kSubBuckets + kSubBits - 1;
  const std::uint64_t sub = static_cast<std::uint64_t>(bucket % kSubBuckets);
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  return (std::uint64_t{1} << e) + (sub + 1) * width - 1;
}

void LatencyHistogram::record(std::uint64_t nanos) {
  buckets_[bucket_of(nanos)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::quantile_us(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * double(total))), 1, total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return double(bucket_max(i)) / 1000.0;
  }
  return 0;
}

OracleService::OracleService(const OracleIndex* index, Config config)
    : index_(index), catalog_(nullptr), config_(config) {
  IRP_CHECK(index_ != nullptr, "oracle service requires an index");
  IRP_CHECK(config_.worker_threads >= 0, "worker_threads must be >= 0");
  IRP_CHECK(config_.queue_capacity > 0, "queue_capacity must be positive");
  study_counters_.push_back(std::make_unique<TypeCounters>());
  workers_.reserve(static_cast<std::size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

OracleService::OracleService(const OracleIndex* index)
    : OracleService(index, Config{}) {}

OracleService::OracleService(const StudyCatalog* catalog, Config config)
    : index_(nullptr), catalog_(catalog), config_(config) {
  IRP_CHECK(catalog_ != nullptr, "oracle service requires a catalog");
  IRP_CHECK(catalog_->size() > 0, "oracle service catalog holds no studies");
  IRP_CHECK(config_.worker_threads >= 0, "worker_threads must be >= 0");
  IRP_CHECK(config_.queue_capacity > 0, "queue_capacity must be positive");
  index_ = catalog_->default_study()->index.get();
  for (std::size_t i = 0; i < catalog_->size(); ++i)
    study_counters_.push_back(std::make_unique<TypeCounters>());
  workers_.reserve(static_cast<std::size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

OracleService::~OracleService() { shutdown(); }

const OracleIndex* OracleService::resolve(std::string_view study,
                                          std::uint32_t* ordinal) const {
  if (catalog_ == nullptr) {
    // Single-index mode hosts exactly one anonymous study.
    if (!study.empty()) return nullptr;
    *ordinal = 0;
    return index_;
  }
  const StudyCatalog::Study* found = catalog_->find(study);
  if (found == nullptr) return nullptr;
  *ordinal = found->ordinal;
  return found->index.get();
}

OracleResponse OracleService::answer(const OracleRequest& request) const {
  return std::visit(Evaluator{index_}, request);
}

OracleResponse OracleService::answer(const OracleRequest& request,
                                     std::string_view study) const {
  std::uint32_t ordinal = 0;
  const OracleIndex* index = resolve(study, &ordinal);
  if (index == nullptr) {
    unknown_study_.fetch_add(1, std::memory_order_relaxed);
    throw UnknownStudyError(study);
  }
  return std::visit(Evaluator{index}, request);
}

OracleResponse OracleService::serve(const OracleRequest& request,
                                    std::string_view study) {
  const auto since = std::chrono::steady_clock::now();
  std::uint32_t ordinal = 0;
  const OracleIndex* index = resolve(study, &ordinal);
  if (index == nullptr) {
    unknown_study_.fetch_add(1, std::memory_order_relaxed);
    throw UnknownStudyError(study);
  }
  return serve_resolved(request, index, ordinal, since);
}

OracleResponse OracleService::serve_resolved(
    const OracleRequest& request, const OracleIndex* index,
    std::uint32_t study_ordinal,
    std::chrono::steady_clock::time_point since) {
  OracleResponse response = std::visit(Evaluator{index}, request);
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
  TypeCounters& counters = counters_[static_cast<int>(query_type(request))];
  TypeCounters& study_counters = *study_counters_[study_ordinal];
  counters.latency.record(nanos);
  counters.served.fetch_add(1, std::memory_order_relaxed);
  study_counters.latency.record(nanos);
  study_counters.served.fetch_add(1, std::memory_order_relaxed);
  // Rebalance before the answer leaves, so a caller that sees the answer
  // also sees the quotas it moved.
  if (config_.cache_rebalance_every > 0 && catalog_ != nullptr) {
    const std::uint64_t served =
        served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (served % config_.cache_rebalance_every == 0)
      catalog_->rebalance_cache();
  }
  return response;
}

void OracleService::serve_one(Pending& pending) {
  try {
    pending.promise.set_value(serve_resolved(pending.request, pending.index,
                                             pending.study_ordinal,
                                             pending.enqueued));
  } catch (...) {
    pending.promise.set_exception(std::current_exception());
  }
}

void OracleService::worker_main() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained.
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    serve_one(pending);
  }
}

OracleService::Submitted OracleService::submit(OracleRequest request) {
  return submit(std::move(request), std::string_view{});
}

OracleService::Submitted OracleService::submit(OracleRequest request,
                                               std::string_view study) {
  Pending pending;
  pending.request = std::move(request);
  pending.index = resolve(study, &pending.study_ordinal);
  if (pending.index == nullptr) {
    unknown_study_.fetch_add(1, std::memory_order_relaxed);
    Submitted shed;
    shed.reject = Reject::kUnknownStudy;
    return shed;
  }
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<OracleResponse> future = pending.promise.get_future();
  const QueryType type = query_type(pending.request);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= config_.queue_capacity) {
      counters_[static_cast<int>(type)].rejected.fetch_add(
          1, std::memory_order_relaxed);
      study_counters_[pending.study_ordinal]->rejected.fetch_add(
          1, std::memory_order_relaxed);
      Submitted shed;  // Overload: shed rather than grow or stall.
      shed.reject = Reject::kOverloaded;
      return shed;
    }
    queue_.push_back(std::move(pending));
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  }
  cv_.notify_one();
  return Submitted{true, std::move(future), Reject::kNone};
}

std::size_t OracleService::drain(std::size_t max_requests) {
  std::size_t served = 0;
  while (served < max_requests) {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    serve_one(pending);
    ++served;
  }
  return served;
}

void OracleService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Deterministic mode (no workers): serve what was accepted before the
  // stop, honoring the accepted-implies-answered contract.
  drain();
}

OracleStatsView OracleService::stats() const {
  OracleStatsView view;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const TypeCounters& c = counters_[t];
    view.per_type[t].served = c.served.load(std::memory_order_relaxed);
    view.per_type[t].rejected = c.rejected.load(std::memory_order_relaxed);
    view.per_type[t].p50_us = c.latency.quantile_us(0.50);
    view.per_type[t].p99_us = c.latency.quantile_us(0.99);
    view.served += view.per_type[t].served;
    view.rejected += view.per_type[t].rejected;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.peak_queue_depth = peak_queue_depth_;
  }
  view.unknown_study = unknown_study_.load(std::memory_order_relaxed);

  view.per_study.reserve(study_counters_.size());
  for (std::size_t i = 0; i < study_counters_.size(); ++i) {
    OracleStatsView::PerStudy per;
    if (catalog_ != nullptr) {
      per.name = catalog_->studies()[i]->name;
      per.cache = catalog_->studies()[i]->index->cache_stats();
    } else {
      per.cache = index_->cache_stats();
    }
    const TypeCounters& c = *study_counters_[i];
    per.served = c.served.load(std::memory_order_relaxed);
    per.rejected = c.rejected.load(std::memory_order_relaxed);
    per.p50_us = c.latency.quantile_us(0.50);
    per.p99_us = c.latency.quantile_us(0.99);
    view.per_study.push_back(std::move(per));
  }

  if (catalog_ == nullptr) {
    view.cache = index_->cache_stats();
  } else {
    // Aggregate across studies; the capacity reported is the shared budget,
    // not the sum of the (rebalancing) per-study quotas.
    for (const OracleStatsView::PerStudy& per : view.per_study) {
      view.cache.hits += per.cache.hits;
      view.cache.misses += per.cache.misses;
      view.cache.evictions += per.cache.evictions;
      view.cache.entries += per.cache.entries;
      view.cache.shards += per.cache.shards;
    }
    view.cache.capacity = catalog_->cache_budget().total_capacity;
  }
  return view;
}

}  // namespace irp
