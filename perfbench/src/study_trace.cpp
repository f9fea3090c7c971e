// Traced study: the same sequence of public calls as run_full_study()
// (core/study.cpp), each wrapped in a span, followed by re-measurement spans
// for the layers that have no public entry inside the passive study.
//
//   bench_study_trace --seed N --scale N --threads N --out DIR --trace FILE
//
// The active study always runs, as in run_study_cli without --no-active.
// The pipeline spans sit under the root span "study". After it, and outside
// it, "remeasure" re-runs on the finished dataset:
//   * bgp.measurement_converge — announce_all() on a fresh measurement-epoch
//     BgpEngine, whose counters() give the engine's work counts;
//   * inference.infer_snapshot — infer_snapshot() over every epoch's corpus;
//   * inference.aggregate — aggregate_snapshots() over the snapshots.
// The CSV reports written to --out are the ones run_study_cli --out writes,
// so run.py checks them against the same recorded digests. run.py takes
// this process's wall time minus the "remeasure" span as the traced study's
// wall time, which covers the same work as an untraced run_study_cli run.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "core/report_io.hpp"
#include "core/study.hpp"
#include "trace.hpp"

using namespace irp;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_study_trace --seed N --scale N --threads N "
               "--out DIR --trace FILE\n");
  std::exit(2);
}

/// The measurement engine's origins, from public GeneratedInternet data:
/// every content origin and cache host, plus the content ASNs.
std::vector<Asn> measurement_origins(const GeneratedInternet& net) {
  std::set<Asn> ases;
  for (const auto& service : net.content.services()) {
    ases.insert(service.origin_asn);
    for (const auto& cache : service.caches) ases.insert(cache.host_asn);
  }
  for (Asn asn : net.content_asns) ases.insert(asn);
  return {ases.begin(), ases.end()};
}

}  // namespace

int main(int argc, char** argv) {
  StudyConfig config;
  std::string out_dir, trace_path;
  long scale = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--seed")
      config.generator.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--scale")
      scale = std::strtol(next(), nullptr, 10);
    else if (arg == "--threads")
      config.passive.parallel.threads = std::atoi(next());
    else if (arg == "--out")
      out_dir = next();
    else if (arg == "--trace")
      trace_path = next();
    else
      usage();
  }
  if (out_dir.empty() || trace_path.empty() || scale < 1) usage();
  config.generator.stubs_per_country *= static_cast<int>(scale);
  config.generator.small_isps_per_country *= static_cast<int>(scale);

  Tracer tracer("study-seed" + std::to_string(config.generator.seed));
  StudyResults r;
  {
    ScopedSpan root(tracer, "study");
    {
      ScopedSpan s(tracer, "topo.generate");
      r.net = generate_internet(config.generator);
    }
    const GeneratedInternet& net = *r.net;
    {
      ScopedSpan s(tracer, "core.passive_study");
      r.passive = run_passive_study(net, config.passive);
    }
    const PassiveDataset& ds = r.passive;
    // DecisionClassifier is not movable, so this span is opened and closed
    // by hand around its initialization.
    const int classifier_span = tracer.begin("core.classifier");
    const DecisionClassifier classifier = make_classifier(ds);
    tracer.end(classifier_span);
    {
      ScopedSpan s(tracer, "core.precompute");
      classifier.precompute(ds.decisions, config.passive.parallel.threads);
    }
    tracer.counter("core.classifier_cache_misses",
                   double(classifier.cache_misses()));
    {
      ScopedSpan s(tracer, "core.analyses");
      {
        ScopedSpan c(tracer, "core.table1");
        r.table1 = compute_table1(ds, net);
      }
      {
        ScopedSpan c(tracer, "core.figure1");
        r.figure1 = compute_figure1(ds, classifier);
      }
      {
        ScopedSpan c(tracer, "core.skew");
        r.skew = compute_skew(ds, net, classifier);
      }
      {
        ScopedSpan c(tracer, "core.figure3");
        r.figure3 = compute_figure3(ds, net, classifier);
      }
      {
        ScopedSpan c(tracer, "core.table3");
        r.table3 = compute_table3(ds, net, classifier);
      }
      {
        ScopedSpan c(tracer, "core.table4");
        r.table4 = compute_table4(ds, net, classifier);
      }
      {
        ScopedSpan c(tracer, "core.psp");
        r.psp = validate_psp(ds, net, classifier);
      }
      {
        ScopedSpan c(tracer, "core.extended");
        r.extended = compute_extended_model(ds, net);
      }
    }
    {
      std::set<Asn> candidate_set;
      for (const Probe& p : ds.probes) candidate_set.insert(p.asn);
      const std::vector<Asn> candidates{candidate_set.begin(),
                                        candidate_set.end()};
      std::vector<Asn> vantages;
      {
        ScopedSpan s(tracer, "core.active_select");
        vantages = ActiveExperiment::select_vantages(
            net, *ds.policy, candidates, config.active.traceroute_vantages);
      }
      ActiveExperiment active{&net,        ds.policy.get(), &ds.inferred,
                              vantages,    config.active,   &ds.siblings};
      {
        ScopedSpan s(tracer, "core.active_alternate");
        r.alternate = active.discover_alternate_routes();
      }
      {
        ScopedSpan s(tracer, "core.active_magnet");
        r.table2 = active.magnet_experiment();
      }
    }
  }
  {
    ScopedSpan s(tracer, "reports.write");
    write_all_reports(r, out_dir);
  }

  const GeneratedInternet& net = *r.net;
  const PassiveDataset& ds = r.passive;
  {
    ScopedSpan root(tracer, "remeasure");
    EngineCounters counters;
    {
      ScopedSpan s(tracer, "bgp.measurement_converge");
      BgpEngine engine(&net.topology, ds.policy.get(), net.measurement_epoch);
      announce_all(engine, net.topology, measurement_origins(net));
      counters = engine.counters();
    }
    tracer.counter("bgp.selections_run", double(counters.selections_run));
    tracer.counter("bgp.rib_routes_scanned",
                   double(counters.rib_routes_scanned));
    tracer.counter("bgp.paths_interned", double(counters.paths_interned));
    tracer.counter("bgp.intern_hits", double(counters.intern_hits));
    {
      ScopedSpan s(tracer, "inference.infer_snapshot");
      for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
        infer_snapshot(ds.corpus.paths(epoch), config.passive.inference);
    }
    {
      ScopedSpan s(tracer, "inference.aggregate");
      aggregate_snapshots(ds.snapshots);
    }
  }
  tracer.write_json(trace_path);
  return 0;
}
