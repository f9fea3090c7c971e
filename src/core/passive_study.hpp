// The passive measurement campaign (§3.1) and its observable products.
//
// Runs the whole pipeline the paper runs against the live Internet, against
// the simulated one instead:
//   1. converge the ground-truth BGP system for five monthly snapshots and
//      collect route-collector feeds (the inference corpus);
//   2. converge the measurement-epoch system for all content-related
//      prefixes, in shards of `snapshot_batch` prefixes on the thread pool,
//      and freeze it into one read-only ConvergedRib;
//   3. sample RIPE-style probes (continent round-robin), resolve the content
//      hostnames per probe, traceroute to the resolved addresses;
//   4. convert IP paths to AS paths and extract per-AS routing decisions;
//   5. run relationship inference (per-snapshot + §3.3 aggregation),
//      sibling inference, and collect the per-prefix BGP observations the
//      PSP criteria need.
//
// Everything downstream (Figure 1, 2, 3, Tables 3, 4) consumes the returned
// PassiveDataset: analyst-observable artifacts, plus the ground-truth policy
// and the measurement epoch's converged RIB (for the §4.3 looking-glass
// check and RouteOracle snapshots). The active experiments build their own
// engines from the policy.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "bgp/engine.hpp"
#include "core/decisions.hpp"
#include "dataplane/ip_to_as.hpp"
#include "dataplane/probes.hpp"
#include "dataplane/traceroute.hpp"
#include "inference/bgp_observations.hpp"
#include "inference/hybrid_dataset.hpp"
#include "inference/path_corpus.hpp"
#include "inference/relationships.hpp"
#include "inference/siblings.hpp"
#include "topo/generator.hpp"
#include "util/thread_pool.hpp"

namespace irp {

/// Campaign parameters.
struct PassiveStudyConfig {
  ProbeSamplerConfig probes;
  /// Hostnames each probe measures per campaign (the paper's probing budget
  /// kept the traceroute count below probes x hostnames).
  int hostnames_per_probe = 14;
  /// Coverage of the Giotsas-style complex-relationships dataset.
  double hybrid_coverage = 0.85;
  InferenceConfig inference;
  /// Prefixes per engine in every convergence of the study: the corpus
  /// snapshot runs and the measurement-epoch shards. Bounds the live engine
  /// state per thread (memory control); results do not depend on it.
  int snapshot_batch = 64;
  /// Thread count for the embarrassingly parallel phases (corpus and
  /// measurement-epoch convergences, per-snapshot inference). All
  /// randomness stays in the serial orchestration, so any thread count
  /// produces byte-identical results; 1 (the default) is the classic serial
  /// path.
  ParallelConfig parallel;
  std::uint64_t seed = 7;
};

/// Everything the passive campaign produced.
struct PassiveDataset {
  // Observables.
  std::vector<Probe> probes;
  std::vector<Traceroute> traceroutes;
  std::vector<RouteDecision> decisions;
  std::vector<FeedEntry> measurement_feed;
  PathCorpus corpus;
  std::vector<InferredTopology> snapshots;  ///< Per epoch, ascending.
  InferredTopology inferred;                ///< §3.3 aggregation.
  SiblingGroups siblings;
  HybridDataset hybrid;
  BgpObservations observations;
  IpToAsMap ip_to_as;

  // Ground truth of the measurement epoch.
  std::unique_ptr<GroundTruthPolicy> policy;
  /// Converged routes of every content-related prefix.
  ConvergedRib rib;

  // Summary statistics.
  std::size_t num_destination_ases = 0;
  std::size_t num_observed_decider_ases = 0;

  PassiveDataset() = default;
  PassiveDataset(const PassiveDataset&) = delete;
  PassiveDataset& operator=(const PassiveDataset&) = delete;
  PassiveDataset(PassiveDataset&&) = default;
  PassiveDataset& operator=(PassiveDataset&&) = default;
};

/// Runs the passive campaign over a generated Internet.
PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config);

/// The ASes whose prefixes the measurement epoch announces: content
/// origins (and their sibling ASNs) plus every cache host, ascending.
std::vector<Asn> content_related_ases(const GeneratedInternet& net);

/// Announces every originated prefix of the given ASes on `engine`
/// (honoring selective-announcement restrictions) and converges.
void announce_all(BgpEngine& engine, const Topology& topo,
                  const std::vector<Asn>& origins);

/// What announce_all() on one engine converges to, frozen: the same
/// announcements, split in announce_all() order into shards of `batch`
/// prefixes that converge concurrently on `pool` (private engines, states
/// drawn from `state_pool` unless null) and are joined in shard order. Equal
/// to freezing the single engine at any thread count and batch size.
ConvergedRib converge_rib(const Topology& topo, const GroundTruthPolicy& policy,
                          int epoch, const std::vector<Asn>& origins,
                          int batch, ThreadPool& pool,
                          BgpEngine::StatePool* state_pool);

}  // namespace irp
