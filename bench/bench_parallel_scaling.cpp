// Wall-clock scaling of the parallel passive-study phases at 1/2/4/8
// threads: corpus build, sharded measurement-epoch convergence and snapshot
// inference (run_passive_study), and the GR path-set precompute behind
// classification. Because all randomness and all result merging stay
// serial, every thread count produces byte-identical outputs — this harness
// only measures time. On one core the speedup column degenerates to ~1x; on
// a 4+-core machine the passive study plus classification is expected to
// reach >= 2x at 4 threads.
#include <chrono>
#include <memory>

#include "bench_common.hpp"
#include "core/analysis.hpp"

namespace {

using irp::DecisionClassifier;
using irp::GeneratedInternet;
using irp::PassiveDataset;
using irp::PassiveStudyConfig;
using irp::run_passive_study;

/// A mid-size Internet: big enough that per-batch convergence dominates,
/// small enough that the 1/2/4/8-thread sweep stays in seconds.
const GeneratedInternet& scaling_net() {
  static const std::unique_ptr<GeneratedInternet> net = [] {
    irp::GeneratorConfig config;
    config.seed = 2026;
    config.world.countries_per_continent = 3;
    config.world.cities_per_country = 2;
    config.tier1_count = 8;
    config.large_isps_per_continent = 4;
    config.education_per_continent = 1;
    config.small_isps_per_country = 2;
    config.stubs_per_country = 5;
    config.content_orgs = 5;
    config.cable_count = 3;
    config.hybrid_pair_count = 3;
    return irp::generate_internet(config);
  }();
  return *net;
}

PassiveStudyConfig scaling_config(int threads) {
  PassiveStudyConfig config;
  config.probes.platform_probes_per_continent = 60;
  config.probes.sample_per_continent = 30;
  config.hostnames_per_probe = 6;
  config.snapshot_batch = 32;
  config.parallel.threads = threads;
  return config;
}

double seconds_passive(int threads) {
  const auto start = std::chrono::steady_clock::now();
  const PassiveDataset ds = run_passive_study(scaling_net(), scaling_config(threads));
  benchmark::DoNotOptimize(ds.corpus.total_paths());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double seconds_classify(const PassiveDataset& ds, int threads) {
  const auto start = std::chrono::steady_clock::now();
  const DecisionClassifier classifier = irp::make_classifier(ds);
  classifier.precompute(ds.decisions, threads);
  benchmark::DoNotOptimize(classifier.cache_misses());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void print_scaling() {
  std::printf(
      "Parallel scaling — corpus build, measurement epoch + inference and GR "
      "precompute\n");
  std::printf("(hardware_concurrency = %d)\n\n",
              irp::resolve_threads(0));

  const PassiveDataset ds =
      run_passive_study(scaling_net(), scaling_config(1));

  std::printf("  %-8s %-16s %-16s %-10s\n", "threads", "passive study",
              "classification", "speedup");
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const double passive = seconds_passive(threads);
    const double classify = seconds_classify(ds, threads);
    const double total = passive + classify;
    if (threads == 1) base = total;
    std::printf("  %-8d %13.3f s %13.3f s %9.2fx\n", threads, passive,
                classify, base / total);
  }
  std::printf("\n");
}

void BM_PassiveStudy(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_passive_study(scaling_net(), scaling_config(int(state.range(0))))
            .corpus.total_paths());
}
BENCHMARK(BM_PassiveStudy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ClassifierPrecompute(benchmark::State& state) {
  static const PassiveDataset ds =
      run_passive_study(scaling_net(), scaling_config(1));
  for (auto _ : state) {
    const DecisionClassifier classifier = irp::make_classifier(ds);
    classifier.precompute(ds.decisions, int(state.range(0)));
    benchmark::DoNotOptimize(classifier.cache_misses());
  }
}
BENCHMARK(BM_ClassifierPrecompute)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

IRP_BENCH_MAIN(print_scaling)
