// RouteOracle service front: typed queries and one counted evaluation path
// over a StudyCatalog.
//
// Four query classes cover what the paper answers one offline pass at a
// time: ClassifyDecision (the §4 GR-validity ladder), AlternateRoutes (the
// §3.2/§4.4 per-AS route diversity), PspVisibility (the §4.3 criteria
// inputs) and RelationshipLookup (inference/sibling output).
//
// Two entry points over the same evaluation:
//   * serve() evaluates on the calling thread and counts the request (per
//     type, per study, latency). The network server calls it for every
//     decoded frame, so a wire request never queues between the socket and
//     the index.
//   * answer() is the uncounted bypass (tools, ground truth).
// A single study is a catalog of one.
//
// Every answer is a pure function of the (immutable) study image, so
// responses are deterministic regardless of how many threads call serve()
// or of the cache state; timing-dependent values live only in
// OracleStatsView.
//
// Remote access: serve/oracle_server.hpp exposes this service over TCP via
// the OracleWire protocol (serve/wire.hpp, spec in docs/PROTOCOL.md);
// remote answers are byte-identical to local ones.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "serve/oracle_index.hpp"
#include "serve/study_catalog.hpp"

namespace irp {

// -- Requests.

/// "Is this routing decision GR-valid under this scenario?" (§4.1-§4.3).
struct ClassifyRequest {
  RouteDecision decision;
  ScenarioOptions scenario;
};

/// "Which routes does AS `asn` hold toward `prefix`?" (§3.2/§4.4).
struct AlternateRoutesRequest {
  Asn asn = 0;
  Ipv4Prefix prefix;
};

/// "Was `origin` seen announcing `prefix` to `neighbor`?" (§4.3).
struct PspVisibilityRequest {
  Asn origin = 0;
  Asn neighbor = 0;
  Ipv4Prefix prefix;
};

/// "What does the aggregated inference say about this AS pair?"
struct RelationshipLookupRequest {
  Asn a = 0;
  Asn b = 0;
};

using OracleRequest = std::variant<ClassifyRequest, AlternateRoutesRequest,
                                   PspVisibilityRequest,
                                   RelationshipLookupRequest>;

// -- Responses (same alternative order as the requests).

struct ClassifyResponse {
  DecisionCategory category = DecisionCategory::kBestShort;
  bool best = false;
  bool is_short = false;
};

struct AlternateRoutesResponse {
  struct Alternate {
    AsPath path;
    Asn from_asn = 0;
  };
  bool has_route = false;
  bool self_originated = false;
  Asn next_hop = 0;
  AsPath selected;
  std::vector<Alternate> alternates;
};

struct PspVisibilityResponse {
  bool announced = false;      ///< origin -> neighbor seen for the prefix.
  bool announced_any = false;  ///< origin -> neighbor seen for any prefix.
  std::vector<Asn> neighbors;  ///< All neighbors seen for (origin, prefix).
};

struct RelationshipLookupResponse {
  bool has_link = false;
  std::optional<Relationship> rel;  ///< Of b from a's perspective.
  bool same_sibling_group = false;
};

using OracleResponse = std::variant<ClassifyResponse, AlternateRoutesResponse,
                                    PspVisibilityResponse,
                                    RelationshipLookupResponse>;

/// Query classes, aligned with the variant alternative indexes.
enum class QueryType : std::uint8_t {
  kClassify = 0,
  kAlternateRoutes = 1,
  kPspVisibility = 2,
  kRelationshipLookup = 3,
};
inline constexpr int kNumQueryTypes = 4;

QueryType query_type(const OracleRequest& request);
std::string_view query_type_name(QueryType type);

/// Deterministic one-line rendering of a response (CLI output; also the
/// byte-comparison form of the determinism tests).
std::string to_text(const OracleResponse& response);

/// Lock-free log-linear latency histogram (nanosecond input): every power
/// of two is split into kSubBuckets equal-width buckets, so a reported
/// quantile is within 1/kSubBuckets (12.5%) of the true order statistic,
/// and values below 2 * kSubBuckets ns are exact.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 8;

  void record(std::uint64_t nanos);
  std::uint64_t count() const;
  /// Approximate quantile in microseconds: the largest value of the bucket
  /// holding the ceil(q * count)-th smallest sample; 0 when empty.
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 3;  // log2(kSubBuckets).
  static_assert(kSubBuckets == 1 << kSubBits);
  /// Values below kSubBuckets get one bucket each; every octave
  /// [2^e, 2^(e+1)) for e in [kSubBits, 63] gets kSubBuckets.
  static constexpr int kBuckets = kSubBuckets * (64 - kSubBits + 1);
  static int bucket_of(std::uint64_t nanos);
  static std::uint64_t bucket_max(int bucket);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Copyable stats snapshot; see OracleService::stats().
struct OracleStatsView {
  struct PerType {
    std::uint64_t served = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  struct PerStudy {
    std::string name;
    std::uint64_t served = 0;
    double p50_us = 0;
    double p99_us = 0;
    ClassifyCache::Stats cache;
  };
  std::array<PerType, kNumQueryTypes> per_type{};
  /// One entry per hosted study, in load order; [0] is the default study.
  std::vector<PerStudy> per_study;
  std::uint64_t served = 0;
  /// Requests naming a study the service does not host.
  std::uint64_t unknown_study = 0;
  /// Aggregated over every study (capacity = the shared budget).
  ClassifyCache::Stats cache;
};

/// Query front over every study of a StudyCatalog. Thread-safe: any number
/// of threads may call serve(), answer() and stats() concurrently.
class OracleService {
 public:
  /// Kept only so perfbench/src/loadgen.cpp's `OracleService(&catalog,
  /// Config{0, 1})` still compiles; it goes with the next perfbench change.
  /// The service has no workers or queue to configure: the constructor
  /// checks worker_threads == 0.
  struct Config {
    int worker_threads = 0;
    std::size_t queue_capacity = 1;
  };

  /// Serves every study in `catalog` (which must be fully loaded and must
  /// outlive the service); "" routes to the catalog's default study.
  explicit OracleService(const StudyCatalog* catalog);
  OracleService(const StudyCatalog* catalog, Config config);

  OracleService(const OracleService&) = delete;
  OracleService& operator=(const OracleService&) = delete;

  /// Evaluates a query against study `study` ("" = default) on the calling
  /// thread and counts it: per-type and per-study `served` and latency.
  /// Throws UnknownStudyError (counted in `unknown_study`) for ids the
  /// service does not host.
  OracleResponse serve(const OracleRequest& request, std::string_view study);

  /// The same evaluation without counting it; throws UnknownStudyError for
  /// ids the service does not host.
  OracleResponse answer(const OracleRequest& request,
                        std::string_view study) const;

  OracleStatsView stats() const;

 private:
  struct TypeCounters {
    std::atomic<std::uint64_t> served{0};
    LatencyHistogram latency;
  };

  /// Resolves a study id; counts and throws UnknownStudyError when the
  /// catalog hosts nothing by that name.
  const StudyCatalog::Study& resolve(std::string_view study) const;

  const StudyCatalog* catalog_;
  std::array<TypeCounters, kNumQueryTypes> counters_;
  /// One slot per study, by ordinal; heap-allocated because the atomics are
  /// not movable.
  std::vector<std::unique_ptr<TypeCounters>> study_counters_;
  mutable std::atomic<std::uint64_t> unknown_study_{0};
};

}  // namespace irp
