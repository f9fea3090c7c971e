// RouteOracle read layer: sharded indexes and cached evaluation over a
// loaded snapshot.
//
// OracleIndex materializes the study datasets (inferred topology, siblings,
// hybrid, observations) back out of the flat snapshot arrays and drives a
// DecisionClassifier over them, so a query against a snapshot reuses exactly
// the classification semantics of the offline study (§4.1-§4.3). Route
// lookups go through a sharded hash index keyed by prefix, then binary
// search by ASN inside the prefix block; everything is read-only after
// construction, so concurrent queries need no locks on the index itself.
//
// ClassifyCache is the one mutable piece: a bounded, sharded LRU over final
// classification results. Shards are independently locked, so concurrent
// classify queries only contend when they hash to the same shard; capacity
// is enforced per shard (capacity/shards each) and eviction is plain LRU.
// Cached values are deterministic functions of the key, so the cache never
// changes an answer — only its latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/classify.hpp"
#include "serve/oracle_snapshot.hpp"

namespace irp {

/// Everything DecisionClassifier::classify reads from a decision + scenario,
/// packed into an equality-comparable cache key.
struct ClassifyKey {
  Asn decider = 0;
  Asn next_hop = 0;
  Asn dest = 0;
  Ipv4Prefix prefix;
  std::uint32_t remaining_len = 0;
  CityId city = 0;
  bool has_city = false;
  std::uint8_t scenario = 0;  ///< bit0 hybrid, bit1 siblings, bits 2-3 PSP.

  friend bool operator==(const ClassifyKey&, const ClassifyKey&) = default;
};

ClassifyKey make_classify_key(const RouteDecision& d,
                              const ScenarioOptions& opts);

struct ClassifyKeyHash {
  std::size_t operator()(const ClassifyKey& k) const;
};

/// Bounded sharded LRU cache for classification results.
class ClassifyCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::size_t shards = 0;
    double hit_rate() const {
      const double total = double(hits) + double(misses);
      return total == 0 ? 0.0 : double(hits) / total;
    }
  };

  /// `capacity` is the total entry budget, split evenly over `shards`.
  /// capacity == 0 disables the cache (every get misses, puts are dropped).
  ClassifyCache(std::size_t capacity, std::size_t shards);

  ClassifyCache(const ClassifyCache&) = delete;
  ClassifyCache& operator=(const ClassifyCache&) = delete;

  std::optional<DecisionCategory> get(const ClassifyKey& key);
  void put(const ClassifyKey& key, DecisionCategory value);
  Stats stats() const;

  /// Re-budgets the cache in place: the new total is split over the existing
  /// shards and each shard's LRU tail is trimmed to the new per-shard bound.
  /// Thread-safe against concurrent get/put; capacity 0 disables the cache
  /// (and drops everything cached). StudyCatalog uses this to split one
  /// budget evenly over its studies as each one loads.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<ClassifyKey, DecisionCategory>> lru;
    std::unordered_map<ClassifyKey, decltype(lru)::iterator, ClassifyKeyHash>
        map;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const ClassifyKey& key);
  static void trim_locked(Shard& shard, std::size_t bound);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> per_shard_capacity_{0};
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

struct OracleIndexConfig {
  std::size_t route_shards = 8;    ///< Prefix-hash shards of the route index.
  std::size_t cache_capacity = 4096;  ///< Total classify-cache entries.
  std::size_t cache_shards = 8;
};

/// Read-only query index over one snapshot. Thread-safe after construction;
/// the snapshot must outlive the index.
class OracleIndex {
 public:
  explicit OracleIndex(const OracleSnapshot* snapshot,
                       OracleIndexConfig config = {});

  OracleIndex(const OracleIndex&) = delete;
  OracleIndex& operator=(const OracleIndex&) = delete;

  // Materialized study views (identical to the live study's products).
  const InferredTopology& topology() const { return topo_; }
  const SiblingGroups& siblings() const { return siblings_; }
  const HybridDataset& hybrid() const { return hybrid_; }
  const BgpObservations& observations() const { return observations_; }
  const DecisionClassifier& classifier() const { return *classifier_; }
  const PathTable& paths() const { return snap_->paths; }
  std::size_t num_ases() const { return snap_->num_ases; }

  /// Classification with DecisionClassifier semantics, memoized through the
  /// sharded LRU. Deterministic: cache state never changes the answer.
  DecisionCategory classify(const RouteDecision& d,
                            const ScenarioOptions& opts) const;

  /// The route block of a prefix; nullptr when the prefix was never
  /// announced in the snapshotted engine.
  const OracleSnapshot::PrefixRoutes* prefix_routes(
      const Ipv4Prefix& prefix) const;

  /// Selected/alternate routes of `asn` toward `prefix`; nullptr when the
  /// AS had no route.
  const OracleSnapshot::RouteEntry* route(Asn asn,
                                          const Ipv4Prefix& prefix) const;

  ClassifyCache::Stats cache_stats() const { return cache_.stats(); }
  /// Re-budgets the classify cache (see ClassifyCache::set_capacity). Safe
  /// to call concurrently with queries; answers never change, only latency.
  void set_cache_capacity(std::size_t capacity) const {
    cache_.set_capacity(capacity);
  }
  std::size_t num_route_shards() const { return route_shards_.size(); }
  std::size_t shard_entries(std::size_t shard) const {
    return route_shards_[shard].by_prefix.size();
  }

 private:
  struct RouteShard {
    std::unordered_map<Ipv4Prefix, const OracleSnapshot::PrefixRoutes*,
                       Ipv4PrefixHash>
        by_prefix;
  };

  const OracleSnapshot* snap_;
  InferredTopology topo_;
  SiblingGroups siblings_;
  HybridDataset hybrid_;
  BgpObservations observations_;
  std::unique_ptr<DecisionClassifier> classifier_;
  std::vector<RouteShard> route_shards_;
  mutable ClassifyCache cache_;
};

}  // namespace irp
