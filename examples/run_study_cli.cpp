// Command-line study driver: run the full reproduction with custom
// parameters and export every artifact (text tables, CSV data series,
// topology snapshots, CAIDA-format relationship dumps), or drive the
// RouteOracle serving layer over a frozen study.
//
//   run_study_cli [--seed N] [--scale N] [--threads N] [--out DIR]
//                 [--no-active] [--save-topology FILE] [--caida-out FILE]
//
//   run_study_cli snapshot --out FILE [--seed N] [--scale N] [--threads N]
//       Run the passive study and freeze it into a binary oracle snapshot.
//
//   run_study_cli query --snapshot [NAME=]FILE [--study NAME]
//                       [--queries FILE]
//   run_study_cli query --connect HOST:PORT [--study NAME] [--queries FILE]
//       Answer queries from --queries or stdin, one per line:
//         classify DECIDER NEXT_HOP DEST PREFIX REMAINING
//                  [hybrid] [siblings] [psp1|psp2]   (flags on the same line)
//         routes ASN PREFIX
//         psp ORIGIN NEIGHBOR PREFIX
//         rel A B
//       With --snapshot (repeatable: NAME=FILE loads several studies), a
//       local catalog answers synchronously (deterministic,
//       single-threaded); --study picks which study answers (default: the
//       first loaded). With --connect, each query goes over OracleWire
//       (docs/PROTOCOL.md) to a `serve --listen` process, --study riding in
//       the version-2 study flag; the printed answers are byte-identical
//       either way.
//
//   run_study_cli serve --snapshot [NAME=]FILE [--cache-budget N]
//                       [--study NAME] [--queries FILE]
//   run_study_cli serve --snapshot [NAME=]FILE [--cache-budget N]
//                       --listen PORT [--bind ADDR]
//       --snapshot is repeatable: `NAME=FILE` hosts several studies behind
//       one endpoint sharing one classify-cache budget (--cache-budget
//       entries total, split evenly over the studies). Without --listen:
//       answers the query stream against --study through the counted
//       OracleService::serve() path, prints each response in order, then
//       the service stats. With --listen: serves OracleWire over TCP until
//       SIGINT/SIGTERM, then drains gracefully and prints wire + service
//       stats. Each request is answered on the server's poll thread.
//       --listen 0 picks an ephemeral port (printed on startup). --bind
//       defaults to 127.0.0.1; use 0.0.0.0 to accept remote hosts.
//
// --scale multiplies the edge population (stubs and access ISPs); the
// default (1) matches the paper-calibrated configuration. --threads runs
// the parallel passive-study phases on N threads (0 = hardware count,
// default 1 = serial); results are byte-identical at any thread count.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_io.hpp"
#include "core/study.hpp"
#include "inference/serialize.hpp"
#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/oracle_service.hpp"
#include "serve/study_catalog.hpp"
#include "topo/serialize.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

using namespace irp;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--scale N] [--threads N] [--out DIR]\n"
      "          [--no-active] [--save-topology FILE] [--caida-out FILE]\n"
      "       %s snapshot --out FILE [--seed N] [--scale N] [--threads N]\n"
      "       %s query {--snapshot [NAME=]FILE ... | --connect HOST:PORT}\n"
      "          [--study NAME] [--queries FILE]\n"
      "       %s serve --snapshot [NAME=]FILE ... [--cache-budget N]\n"
      "          [--study NAME] [--queries FILE]\n"
      "       %s serve --snapshot [NAME=]FILE ... [--cache-budget N]\n"
      "          --listen PORT [--bind ADDR]\n",
      argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Checked integer flag parse: the whole value must be a decimal in
/// [min, max] — "abc", "", "-1" and "12x" are usage errors, never a silent
/// 0 the way atoi would have it.
std::uint64_t u64_flag(const char* argv0, const char* flag, const char* text,
                       std::uint64_t min, std::uint64_t max) {
  const std::optional<std::uint64_t> value = parse_u64_in(text, min, max);
  if (!value) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    usage(argv0);
  }
  return *value;
}

/// One --snapshot value: "NAME=PATH" names the study, a bare path loads it
/// as "default". Loads every spec into `catalog` (first spec = default
/// study) and prints a per-study line.
struct SnapshotSpec {
  std::string name;
  std::string path;
};

SnapshotSpec parse_snapshot_spec(const char* argv0, const std::string& text) {
  SnapshotSpec spec;
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) {
    spec.name = "default";
    spec.path = text;
  } else {
    spec.name = text.substr(0, eq);
    spec.path = text.substr(eq + 1);
  }
  if (spec.name.empty() || spec.path.empty()) {
    std::fprintf(stderr, "error: --snapshot expects [NAME=]FILE, got '%s'\n",
                 text.c_str());
    usage(argv0);
  }
  return spec;
}

void load_catalog(StudyCatalog& catalog,
                  const std::vector<SnapshotSpec>& specs) {
  // Diagnostics go to stderr: query-mode stdout must stay byte-identical
  // between the local and --connect paths.
  for (const SnapshotSpec& spec : specs) {
    const StudyCatalog::Study& study =
        catalog.add_study_file(spec.name, spec.path);
    std::fprintf(stderr,
                 "# loaded study %s (%zu prefixes, %zu paths, %zu bytes)\n",
                 study.id.c_str(), study.snapshot.routes.size(),
                 static_cast<std::size_t>(study.snapshot.paths.num_paths()),
                 study.image_bytes);
  }
}

/// Parses one query line into a request; nullopt for blank/comment lines.
/// Malformed lines throw CheckError with a line-scoped message.
std::optional<OracleRequest> parse_query(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb) || verb[0] == '#') return std::nullopt;

  auto asn = [&]() -> Asn {
    unsigned long long v = 0;
    IRP_CHECK(static_cast<bool>(in >> v), "query: missing ASN in: " + line);
    return static_cast<Asn>(v);
  };
  auto prefix = [&]() -> Ipv4Prefix {
    std::string text;
    IRP_CHECK(static_cast<bool>(in >> text),
              "query: missing prefix in: " + line);
    const auto p = Ipv4Prefix::parse(text);
    IRP_CHECK(p.has_value(), "query: bad prefix '" + text + "' in: " + line);
    return *p;
  };

  if (verb == "classify") {
    ClassifyRequest req;
    req.decision.decider = asn();
    req.decision.next_hop = asn();
    req.decision.dest_asn = asn();
    req.decision.dst_prefix = prefix();
    unsigned long long remaining = 0;
    IRP_CHECK(static_cast<bool>(in >> remaining),
              "query: missing remaining length in: " + line);
    req.decision.remaining_len = static_cast<std::size_t>(remaining);
    std::string flag;
    while (in >> flag) {
      if (flag == "hybrid")
        req.scenario.use_hybrid = true;
      else if (flag == "siblings")
        req.scenario.use_siblings = true;
      else if (flag == "psp1")
        req.scenario.psp = PspMode::kCriteria1;
      else if (flag == "psp2")
        req.scenario.psp = PspMode::kCriteria2;
      else
        IRP_CHECK(false, "query: unknown scenario flag '" + flag + "'");
    }
    return OracleRequest{req};
  }
  if (verb == "routes") {
    AlternateRoutesRequest req;
    req.asn = asn();
    req.prefix = prefix();
    return OracleRequest{req};
  }
  if (verb == "psp") {
    PspVisibilityRequest req;
    req.origin = asn();
    req.neighbor = asn();
    req.prefix = prefix();
    return OracleRequest{req};
  }
  if (verb == "rel") {
    RelationshipLookupRequest req;
    req.a = asn();
    req.b = asn();
    return OracleRequest{req};
  }
  IRP_CHECK(false, "query: unknown verb '" + verb + "'");
}

std::vector<OracleRequest> read_queries(const std::string& queries_file) {
  std::ifstream file;
  if (!queries_file.empty()) {
    file.open(queries_file);
    IRP_CHECK(file.is_open(), "cannot open queries file " + queries_file);
  }
  std::istream& in = queries_file.empty() ? std::cin : file;
  std::vector<OracleRequest> out;
  std::string line;
  while (std::getline(in, line))
    if (auto req = parse_query(line)) out.push_back(std::move(*req));
  return out;
}

StudyConfig parse_study_flags(int argc, char** argv, int first,
                              std::string* out_path) {
  StudyConfig config;
  int scale = 1;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed")
      config.generator.seed = u64_flag(argv[0], "--seed", next(), 0, UINT64_MAX);
    else if (arg == "--scale")
      scale = static_cast<int>(u64_flag(argv[0], "--scale", next(), 1, 1024));
    else if (arg == "--threads")
      config.passive.parallel.threads =
          static_cast<int>(u64_flag(argv[0], "--threads", next(), 0, 4096));
    else if (arg == "--out")
      *out_path = next();
    else
      usage(argv[0]);
  }
  config.generator.stubs_per_country *= scale;
  config.generator.small_isps_per_country *= scale;
  config.run_active = false;  // The oracle serves the passive study.
  return config;
}

int cmd_snapshot(int argc, char** argv) {
  std::string out_path;
  const StudyConfig config = parse_study_flags(argc, argv, 2, &out_path);
  if (out_path.empty()) usage(argv[0]);

  std::printf("Running passive study (seed=%llu)...\n",
              static_cast<unsigned long long>(config.generator.seed));
  // The image needs only the passive campaign: no classifier, analyses or
  // active experiments.
  const auto net = generate_internet(config.generator);
  const OracleSnapshot snap =
      snapshot_study(run_passive_study(*net, config.passive));
  snap.save(out_path);
  std::printf(
      "wrote oracle snapshot to %s (%zu relationships, %zu prefixes, "
      "%zu route entries, %zu interned paths)\n",
      out_path.c_str(), snap.relationships.size(), snap.routes.size(),
      snap.num_route_entries(), static_cast<std::size_t>(snap.paths.num_paths()));
  return 0;
}

int cmd_query(int argc, char** argv) {
  std::vector<SnapshotSpec> snapshots;
  std::string queries_file, connect, study;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--snapshot")
      snapshots.push_back(parse_snapshot_spec(argv[0], next()));
    else if (arg == "--connect")
      connect = next();
    else if (arg == "--study")
      study = next();
    else if (arg == "--queries")
      queries_file = next();
    else
      usage(argv[0]);
  }
  if (snapshots.empty() == connect.empty()) usage(argv[0]);

  if (!connect.empty()) {
    // Remote mode: the same answers, fetched over OracleWire. The output
    // below must stay byte-identical to the local branch —
    // test_oracle_server pins that equivalence at the library level.
    const std::size_t colon = connect.rfind(':');
    IRP_CHECK(colon != std::string::npos && colon > 0,
              "--connect expects HOST:PORT, got " + connect);
    OracleClient::Config cc;
    cc.host = connect.substr(0, colon);
    cc.port = static_cast<std::uint16_t>(u64_flag(
        argv[0], "--connect port", connect.c_str() + colon + 1, 1, 65535));
    cc.study = study;
    OracleClient client(cc);
    for (const OracleRequest& request : read_queries(queries_file))
      std::printf("%s\n", to_text(client.call(request)).c_str());
    return 0;
  }

  StudyCatalog catalog;
  load_catalog(catalog, snapshots);
  const OracleService service(&catalog);

  for (const OracleRequest& request : read_queries(queries_file))
    std::printf("%s\n", to_text(service.answer(request, study)).c_str());
  return 0;
}

void print_service_stats(const OracleStatsView& stats) {
  // peak_queue=0 is a literal: the service has no queue, but the benchmark's
  // drain parser (perfbench/run.py, parse_drain_stats) still reads the field.
  std::printf("# served=%llu unknown_study=%llu peak_queue=0 "
              "cache_hit_rate=%.3f\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.unknown_study),
              stats.cache.hit_rate());
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const auto& pt = stats.per_type[t];
    if (pt.served == 0) continue;
    std::printf("#   %s: served=%llu p50=%.1fus p99=%.1fus\n",
                std::string(query_type_name(static_cast<QueryType>(t))).c_str(),
                static_cast<unsigned long long>(pt.served), pt.p50_us,
                pt.p99_us);
  }
  if (stats.per_study.size() <= 1) return;
  for (const auto& per : stats.per_study) {
    std::printf("#   study %s: served=%llu p50=%.1fus p99=%.1fus "
                "cache_quota=%zu cache_hit_rate=%.3f\n",
                per.name.c_str(), static_cast<unsigned long long>(per.served),
                per.p50_us, per.p99_us, per.cache.capacity,
                per.cache.hit_rate());
  }
}

/// `serve --listen`: OracleWire over TCP until SIGINT/SIGTERM, then a
/// graceful drain (requests already read answered, new connections
/// refused). The poll thread answers every request itself.
int serve_network(const StudyCatalog& catalog,
                  OracleServer::Config server_cfg) {
  // Block the shutdown signals before any thread exists so the poll thread
  // inherits the mask and sigwait() below is race-free.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  OracleService service(&catalog);
  OracleServer server(&service, server_cfg);
  server.start();
  std::printf("oracle serving %zu stud%s on %s:%u (answered on the poll "
              "thread); SIGINT/SIGTERM drains and exits\n",
              catalog.size(), catalog.size() == 1 ? "y" : "ies",
              server_cfg.bind_address.c_str(), server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("signal %d: draining...\n", sig);
  server.shutdown();  // Answers everything read, refuses new work.

  const WireServerStats wire = server.stats();
  // shed=0 is a literal: overload is TCP backpressure and nothing is shed,
  // but the benchmark's drain parser (perfbench/run.py, parse_drain_stats)
  // still reads the field.
  std::printf(
      "# wire: conns=%llu refused=%llu frames_in=%llu frames_out=%llu "
      "admitted=%llu shed=0 unknown_study=%llu decode_errors=%llu "
      "bytes_in=%llu bytes_out=%llu\n",
      static_cast<unsigned long long>(wire.connections_accepted),
      static_cast<unsigned long long>(wire.connections_refused),
      static_cast<unsigned long long>(wire.frames_in),
      static_cast<unsigned long long>(wire.frames_out),
      static_cast<unsigned long long>(wire.requests_admitted),
      static_cast<unsigned long long>(wire.requests_unknown_study),
      static_cast<unsigned long long>(wire.decode_errors),
      static_cast<unsigned long long>(wire.bytes_in),
      static_cast<unsigned long long>(wire.bytes_out));
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const auto& pt = wire.per_type[t];
    if (pt.answered == 0) continue;
    std::printf("#   wire %s: answered=%llu p50=%.1fus p99=%.1fus\n",
                std::string(query_type_name(static_cast<QueryType>(t))).c_str(),
                static_cast<unsigned long long>(pt.answered), pt.p50_us,
                pt.p99_us);
  }
  print_service_stats(service.stats());
  return 0;
}

int cmd_serve(int argc, char** argv) {
  std::vector<SnapshotSpec> snapshots;
  std::string queries_file, study;
  OracleServer::Config server_config;
  StudyCatalogConfig catalog_config;
  bool listen = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--snapshot")
      snapshots.push_back(parse_snapshot_spec(argv[0], next()));
    else if (arg == "--queries")
      queries_file = next();
    else if (arg == "--study")
      study = next();
    else if (arg == "--cache-budget")
      catalog_config.total_cache_capacity = static_cast<std::size_t>(
          u64_flag(argv[0], "--cache-budget", next(), 0, 100'000'000));
    else if (arg == "--listen") {
      listen = true;
      server_config.port = static_cast<std::uint16_t>(
          u64_flag(argv[0], "--listen", next(), 0, 65535));
    } else if (arg == "--bind")
      server_config.bind_address = next();
    else
      usage(argv[0]);
  }
  if (snapshots.empty()) usage(argv[0]);
  if (listen && !queries_file.empty()) usage(argv[0]);

  StudyCatalog catalog(catalog_config);
  load_catalog(catalog, snapshots);
  if (listen) return serve_network(catalog, server_config);
  OracleService service(&catalog);

  for (const OracleRequest& request : read_queries(queries_file)) {
    try {
      std::printf("%s\n", to_text(service.serve(request, study)).c_str());
    } catch (const UnknownStudyError&) {
      std::printf("rejected (unknown study)\n");
    }
  }
  print_service_stats(service.stats());
  return 0;
}

int cmd_legacy(int argc, char** argv) {
  StudyConfig config;
  std::string out_dir;
  std::string topology_file;
  std::string caida_file;
  int scale = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed")
      config.generator.seed =
          u64_flag(argv[0], "--seed", next(), 0, UINT64_MAX);
    else if (arg == "--scale")
      scale = static_cast<int>(u64_flag(argv[0], "--scale", next(), 1, 1024));
    else if (arg == "--threads")
      config.passive.parallel.threads =
          static_cast<int>(u64_flag(argv[0], "--threads", next(), 0, 4096));
    else if (arg == "--out")
      out_dir = next();
    else if (arg == "--no-active")
      config.run_active = false;
    else if (arg == "--save-topology")
      topology_file = next();
    else if (arg == "--caida-out")
      caida_file = next();
    else
      usage(argv[0]);
  }
  config.generator.stubs_per_country *= scale;
  config.generator.small_isps_per_country *= scale;

  std::printf("Running study (seed=%llu, scale=%d, active=%s)...\n",
              static_cast<unsigned long long>(config.generator.seed), scale,
              config.run_active ? "yes" : "no");
  const StudyResults r = run_full_study(config);

  std::printf("\n%s\n", render_table1(r.table1).render().c_str());
  std::printf("%s\n", render_figure1(r.figure1).render().c_str());
  std::printf("%s\n", render_figure3(r.figure3).render().c_str());
  std::printf("%s\n", render_table3(r.table3, r.net->world).render().c_str());
  std::printf("%s\n", render_table4(r.table4).render().c_str());

  if (!out_dir.empty()) {
    const int files = write_all_reports(r, out_dir);
    std::printf("wrote %d CSV report files to %s/\n", files, out_dir.c_str());
  }
  if (!topology_file.empty()) {
    write_file(topology_file, serialize_topology(r.net->topology));
    std::printf("wrote ground-truth topology to %s\n", topology_file.c_str());
  }
  if (!caida_file.empty()) {
    write_file(caida_file, to_caida_format(r.passive.inferred));
    std::printf("wrote inferred relationships (CAIDA format) to %s\n",
                caida_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0)
      return cmd_snapshot(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "query") == 0)
      return cmd_query(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
      return cmd_serve(argc, argv);
    return cmd_legacy(argc, argv);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
