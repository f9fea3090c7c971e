// OracleService determinism tests.
//
// The same query stream must render byte-identically whether it is answered
// serially through the uncounted answer() or by four threads calling the
// counted serve() at once — responses are pure functions of the study
// image, so interleaving and cache state must never leak into an answer.
// Run under IRP_SANITIZE=thread this doubles as the data-race check for the
// whole serve layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle_service.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

struct OracleFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  std::vector<OracleRequest> queries;
};

const OracleFixture& fixture() {
  static const OracleFixture fx = [] {
    OracleFixture f;
    f.net = generate_internet(test::small_generator_config());
    f.passive = run_passive_study(*f.net, test::small_passive_config());

    // A mixed stream touching all four query classes, derived
    // deterministically from the study itself.
    const auto& decisions = f.passive.decisions;
    const auto scenarios = figure1_scenarios();
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      const RouteDecision& d = decisions[i];
      ClassifyRequest classify;
      classify.decision = d;
      classify.scenario = scenarios[i % scenarios.size()].options;
      f.queries.emplace_back(classify);
      if (i % 3 == 0)
        f.queries.emplace_back(AlternateRoutesRequest{d.decider, d.dst_prefix});
      if (i % 5 == 0)
        f.queries.emplace_back(
            PspVisibilityRequest{d.dest_asn, d.next_hop, d.dst_prefix});
      if (i % 7 == 0)
        f.queries.emplace_back(RelationshipLookupRequest{d.decider, d.next_hop});
    }
    return f;
  }();
  return fx;
}

/// A fresh catalog of one over the fixture's study.
std::unique_ptr<StudyCatalog> make_catalog() {
  auto catalog = std::make_unique<StudyCatalog>();
  catalog->add_study("default", snapshot_study(fixture().passive));
  return catalog;
}

/// Serves the whole stream from `threads` threads at once (thread t takes
/// every threads-th query from t) and renders every response, in stream
/// order, into one string.
std::string serve_concurrently(OracleService& service, int threads) {
  const std::vector<OracleRequest>& queries = fixture().queries;
  std::vector<std::string> rendered(queries.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += threads)
        rendered[i] = to_text(service.serve(queries[i], ""));
    });
  for (std::thread& thread : pool) thread.join();
  std::string out;
  for (const std::string& line : rendered) out += line + '\n';
  return out;
}

TEST(OracleDeterminism, ConcurrentAnswersAreByteIdenticalToSerial) {
  const OracleFixture& f = fixture();
  ASSERT_GT(f.queries.size(), 100u);
  auto catalog = make_catalog();
  OracleService service(catalog.get());

  std::string serial;
  for (const OracleRequest& request : f.queries)
    serial += to_text(service.answer(request, "")) + '\n';

  EXPECT_EQ(serve_concurrently(service, 4), serial);
  // And a repeat with warm caches must not change a byte either.
  EXPECT_EQ(serve_concurrently(service, 4), serial);

  // Every concurrent request was counted once; answer() counted none.
  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, 2 * f.queries.size());
  ASSERT_EQ(stats.per_study.size(), 1u);
  EXPECT_EQ(stats.per_study[0].served, 2 * f.queries.size());
}

TEST(OracleDeterminism, AnswerBypassMatchesServe) {
  const OracleFixture& f = fixture();
  auto catalog = make_catalog();
  OracleService service(catalog.get());
  for (std::size_t i = 0; i < 50 && i < f.queries.size(); ++i)
    EXPECT_EQ(to_text(service.serve(f.queries[i], "")),
              to_text(service.answer(f.queries[i], "")));
  EXPECT_EQ(service.stats().served, std::min<std::size_t>(50, f.queries.size()));
}

TEST(OracleStats, HistogramAndCountersTrackServing) {
  const OracleFixture& f = fixture();
  auto catalog = make_catalog();
  OracleService service(catalog.get());
  constexpr std::size_t kN = 200;
  for (std::size_t i = 0; i < kN; ++i)
    (void)service.serve(f.queries[i % f.queries.size()], "");

  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, kN);
  std::uint64_t per_type_sum = 0;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    per_type_sum += stats.per_type[t].served;
    if (stats.per_type[t].served > 0) {
      EXPECT_GT(stats.per_type[t].p50_us, 0.0);
      EXPECT_GE(stats.per_type[t].p99_us, stats.per_type[t].p50_us);
    }
  }
  EXPECT_EQ(per_type_sum, kN);
  // The classify cache saw traffic and reports coherent counters.
  const ClassifyCache::Stats cache = stats.cache;
  EXPECT_GT(cache.hits + cache.misses, 0u);
  EXPECT_LE(cache.entries, cache.capacity);
}

TEST(OracleStats, LatencyHistogramQuantilesWithinOneSubBucket) {
  // Log-uniform samples from 1 ns to ~17 s, plus every small value once.
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int bits = static_cast<int>(x % 34);
    samples.push_back((x >> 30) & ((std::uint64_t{1} << bits) - 1));
  }
  for (std::uint64_t v = 0; v < 64; ++v) samples.push_back(v);

  LatencyHistogram histogram;
  for (std::uint64_t v : samples) histogram.record(v);
  EXPECT_EQ(histogram.count(), samples.size());
  std::sort(samples.begin(), samples.end());

  for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = static_cast<double>(samples[rank - 1]);
    const double reported = histogram.quantile_us(q) * 1000.0;
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact * 1.125) << "q=" << q;
  }

  // Below 2 * kSubBuckets ns every bucket holds one value: exact.
  LatencyHistogram small;
  for (std::uint64_t v = 1; v <= 15; ++v) small.record(v);
  EXPECT_DOUBLE_EQ(small.quantile_us(0.5) * 1000.0, 8.0);
  EXPECT_DOUBLE_EQ(small.quantile_us(1.0) * 1000.0, 15.0);
  EXPECT_EQ(LatencyHistogram{}.quantile_us(0.5), 0.0);
}

}  // namespace
}  // namespace irp
