// StudyCatalog tests: N snapshots behind one endpoint must be
// indistinguishable from N single-study oracles.
//
// The headline guarantee is byte identity for N=3: every query answered by
// the catalog-backed service — locally and over the wire with the
// version-2 study flag — renders to exactly the text a dedicated
// single-study service (a catalog of one) produces for the same snapshot.
// On top of that: every hosted study is exactly its image (the checksum in
// its id, PathIds inside its own path table, answers that materialize from
// it); pre-multi-study (version 1) clients keep working against the
// default study; unknown study ids reject with the typed error at every
// layer (answer/serve/wire); the shared classify-cache budget is split
// evenly and enforced; and the whole stack is exercised under concurrent
// multi-study load (the TSan target for this subsystem).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/byte_io.hpp"
#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/oracle_service.hpp"
#include "serve/study_catalog.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

constexpr std::uint64_t kSeeds[3] = {42, 43, 44};
constexpr const char* kNames[3] = {"epoch-a", "epoch-b", "epoch-c"};

struct StudyFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  /// The single-study ground truth: a catalog of one holding this study.
  std::unique_ptr<StudyCatalog> single;
  std::vector<OracleRequest> queries;
};

StudyFixture make_fixture(std::uint64_t seed) {
  StudyFixture f;
  f.net = generate_internet(test::small_generator_config(seed));
  f.passive = run_passive_study(*f.net, test::small_passive_config());
  f.single = std::make_unique<StudyCatalog>();
  f.single->add_study("default", snapshot_study(f.passive));

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
  // Cap the stream so the three-fixture tests stay fast; coverage across
  // query types is preserved by the interleaving above.
  if (f.queries.size() > 400) f.queries.resize(400);
  return f;
}

/// Three studies from three seeds, built once per binary.
const std::array<StudyFixture, 3>& fixtures() {
  static const std::array<StudyFixture, 3> fx = {
      make_fixture(kSeeds[0]), make_fixture(kSeeds[1]),
      make_fixture(kSeeds[2])};
  return fx;
}

/// Fresh catalog over the three fixtures (fresh caches, so hit counts start
/// at zero).
std::unique_ptr<StudyCatalog> make_catalog(StudyCatalogConfig config = {}) {
  auto catalog = std::make_unique<StudyCatalog>(config);
  for (int s = 0; s < 3; ++s)
    catalog->add_study(kNames[s], snapshot_study(fixtures()[s].passive));
  return catalog;
}

// -- Raw-socket helpers for the version-1 compatibility test.

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_bytes(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<WireFrame> read_one_frame(int fd, int timeout_ms = 5000) {
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto frame = try_decode_frame(buffer)) return frame;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    buffer.append(buf, static_cast<std::size_t>(n));
  }
}

// -- Catalog structure and lookup.

TEST(StudyCatalog, IdentityAndLookup) {
  auto catalog = make_catalog();
  ASSERT_EQ(catalog->size(), 3u);

  for (int s = 0; s < 3; ++s) {
    const StudyCatalog::Study* study = catalog->find(kNames[s]);
    ASSERT_NE(study, nullptr);
    EXPECT_EQ(study->name, kNames[s]);
    EXPECT_EQ(study->ordinal, static_cast<std::uint32_t>(s));
    // id = "<name>@<16 hex digits of the image checksum>".
    ASSERT_EQ(study->id.size(), study->name.size() + 1 + 16);
    EXPECT_EQ(study->id.substr(0, study->name.size() + 1),
              study->name + "@");
    EXPECT_GT(study->image_bytes, 0u);
    // The full id resolves to the same study.
    EXPECT_EQ(catalog->find(study->id), study);
  }
  // "" is the default (first-loaded) study.
  EXPECT_EQ(catalog->find(""), catalog->default_study());
  EXPECT_EQ(catalog->default_study()->name, kNames[0]);
  EXPECT_EQ(catalog->find("no-such-study"), nullptr);
  // A stale full id (right name, wrong checksum) does not resolve.
  EXPECT_EQ(catalog->find(std::string(kNames[0]) + "@0000000000000000"),
            nullptr);
}

TEST(StudyCatalog, RejectsBadAndDuplicateNames) {
  StudyCatalog catalog;
  catalog.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  EXPECT_THROW(
      catalog.add_study("epoch-a", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_THROW(catalog.add_study("", snapshot_study(fixtures()[1].passive)),
               CheckError);
  EXPECT_THROW(
      catalog.add_study("a=b", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_THROW(
      catalog.add_study("a@b", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_EQ(catalog.size(), 1u);
}

// -- A study is its image.

/// Every PathId a study's routes hold lies inside that study's own path
/// table, and the AlternateRoutes answer is exactly the path it names.
void expect_routes_resolve_in_own_table(const OracleService& service,
                                        const StudyCatalog::Study& study) {
  const OracleSnapshot& snap = study.snapshot;
  const PathId num_paths = snap.paths.num_paths();
  std::size_t checked = 0;
  for (const OracleSnapshot::PrefixRoutes& pr : snap.routes) {
    for (const OracleSnapshot::RouteEntry& entry : pr.entries) {
      ASSERT_LT(entry.selected, num_paths) << study.name;
      for (const OracleSnapshot::AlternateRoute& alt : entry.alternates)
        ASSERT_LT(alt.path, num_paths) << study.name;
      const auto resp = std::get<AlternateRoutesResponse>(service.answer(
          AlternateRoutesRequest{entry.asn, pr.prefix}, study.name));
      ASSERT_TRUE(resp.has_route);
      EXPECT_EQ(resp.selected, snap.paths.materialize(entry.selected))
          << study.name;
      ASSERT_EQ(resp.alternates.size(), entry.alternates.size());
      for (std::size_t i = 0; i < entry.alternates.size(); ++i)
        EXPECT_EQ(resp.alternates[i].path,
                  snap.paths.materialize(entry.alternates[i].path))
            << study.name;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << study.name;
}

std::string id_checksum(const StudyCatalog::Study& study) {
  return study.id.substr(study.name.size() + 1);
}

TEST(StudyCatalog, StudyIsItsImage) {
  auto catalog = make_catalog();
  const OracleService service(catalog.get());
  for (const auto& study : catalog->studies()) {
    // The held snapshot re-serializes to the very image the id checksums.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(study->snapshot.to_bytes())));
    EXPECT_EQ(id_checksum(*study), hex) << study->name;
    expect_routes_resolve_in_own_table(service, *study);
  }

  // Identical content under two names: one checksum, identical answers.
  StudyCatalog twins;
  twins.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  twins.add_study("epoch-a2", snapshot_study(fixtures()[0].passive));
  EXPECT_EQ(id_checksum(*twins.studies()[0]), id_checksum(*twins.studies()[1]));
  const OracleService twin_service(&twins);
  expect_routes_resolve_in_own_table(twin_service, *twins.studies()[1]);
  const StudyFixture& f = fixtures()[0];
  for (std::size_t i = 0; i < f.queries.size(); i += 13)
    EXPECT_EQ(to_text(twin_service.answer(f.queries[i], "epoch-a")),
              to_text(twin_service.answer(f.queries[i], "epoch-a2")));
}

// -- Byte identity: the catalog answers exactly like N dedicated oracles.

TEST(StudyCatalog, ThreeStudyServiceMatchesSingleStudyServicesLocally) {
  auto catalog = make_catalog();
  OracleService multi(catalog.get());

  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    const OracleService single(f.single.get());
    for (const OracleRequest& request : f.queries)
      EXPECT_EQ(to_text(multi.answer(request, kNames[s])),
                to_text(single.answer(request, "")))
          << "study " << kNames[s];
  }

  // Per-study accounting: answer() is the uncounted bypass, serve() counts
  // each request against the study it names.
  std::array<std::size_t, 3> served{};
  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    for (std::size_t i = 0; i < f.queries.size(); i += 10) {
      EXPECT_EQ(to_text(multi.serve(f.queries[i], kNames[s])),
                to_text(multi.answer(f.queries[i], kNames[s])));
      ++served[s];
    }
  }

  const OracleStatsView stats = multi.stats();
  EXPECT_EQ(stats.served, served[0] + served[1] + served[2]);
  ASSERT_EQ(stats.per_study.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(stats.per_study[s].name, kNames[s]);
    EXPECT_EQ(stats.per_study[s].served, served[s]);
  }
}

TEST(StudyCatalog, ThreeStudyServerMatchesSingleStudyServersOverWire) {
  auto catalog = make_catalog();
  OracleService multi_service(catalog.get());
  OracleServer multi_server(&multi_service);
  multi_server.start();

  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    // The single-study ground truth, served by its own process-local stack.
    OracleService single(f.single.get());
    OracleServer single_server(&single);
    single_server.start();

    OracleClient::Config to_multi;
    to_multi.port = multi_server.port();
    to_multi.study = kNames[s];  // Version-2 frames with the study flag.
    OracleClient multi_client(to_multi);

    OracleClient::Config to_single;
    to_single.port = single_server.port();
    OracleClient single_client(to_single);

    for (const OracleRequest& request : f.queries)
      EXPECT_EQ(to_text(multi_client.call(request)),
                to_text(single_client.call(request)))
          << "study " << kNames[s];

    single_server.shutdown();
  }

  EXPECT_EQ(multi_server.stats().requests_unknown_study, 0u);
  multi_server.shutdown();
}

TEST(StudyCatalog, Version1ClientGetsTheDefaultStudy) {
  auto catalog = make_catalog();
  OracleService service(catalog.get());
  OracleServer server(&service);
  server.start();

  // encode_request without a study emits exactly the version-1 bytes
  // (pinned by test_wire's golden test), so this raw socket IS a pre-bump
  // client. It must be answered from the default study.
  const StudyFixture& def = fixtures()[0];
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < def.queries.size(); i += 17) {
    send_bytes(fd, encode_request(id, def.queries[i]));
    const auto frame = read_one_frame(fd);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->request_id, id);
    const auto reply = decode_reply(*frame);
    ASSERT_TRUE(std::holds_alternative<OracleResponse>(reply));
    EXPECT_EQ(to_text(std::get<OracleResponse>(reply)),
              to_text(service.answer(def.queries[i], "")));
    ++id;
  }
  ::close(fd);

  server.shutdown();
}

// -- Unknown studies reject with the typed error at every layer.

TEST(StudyCatalog, UnknownStudyRejectsAtEveryLayer) {
  auto catalog = make_catalog();
  OracleService service(catalog.get());
  const OracleRequest request{RelationshipLookupRequest{1, 2}};

  // answer(): the typed exception carries the offending id.
  try {
    (void)service.answer(request, "nope");
    FAIL() << "answer against an unknown study succeeded";
  } catch (const UnknownStudyError& e) {
    EXPECT_EQ(e.study(), "nope");
  }

  // serve(): the same typed exception, counted but never served.
  EXPECT_THROW((void)service.serve(request, "nope"), UnknownStudyError);
  EXPECT_EQ(service.stats().unknown_study, 2u);
  EXPECT_EQ(service.stats().served, 0u);

  // Known studies are untouched by the failures above.
  EXPECT_NO_THROW((void)service.serve(request, kNames[1]));
  EXPECT_EQ(service.stats().served, 1u);

  // Wire: the client surfaces kUnknownStudy without retrying.
  OracleServer server(&service);
  server.start();
  OracleClient::Config cc;
  cc.port = server.port();
  cc.study = "nope";
  OracleClient client(cc);
  try {
    (void)client.call(request);
    FAIL() << "call against an unknown study succeeded";
  } catch (const OracleServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kUnknownStudy);
  }
  EXPECT_EQ(server.stats().requests_unknown_study, 1u);

  server.shutdown();
}

// -- Shared classify-cache budget.

TEST(StudyCatalog, CacheBudgetIsSharedAndEnforced) {
  StudyCatalogConfig config;
  config.total_cache_capacity = 240;
  auto catalog = make_catalog(config);

  // On load every study gets an even split of the budget.
  StudyCatalog::CacheBudgetView budget = catalog->cache_budget();
  EXPECT_EQ(budget.total_capacity, 240u);
  ASSERT_EQ(budget.per_study.size(), 3u);
  for (const auto& per : budget.per_study) EXPECT_EQ(per.quota, 80u);

  // Make epoch-a hot: run its classify stream twice so it accrues hits,
  // while the others stay cold.
  const OracleService service(catalog.get());
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : fixtures()[0].queries)
      if (std::holds_alternative<ClassifyRequest>(request))
        (void)service.answer(request, kNames[0]);

  // Enforcement: no study's cache exceeds its quota even though the hot
  // stream has far more distinct keys than the quota, and traffic does not
  // move the split.
  budget = catalog->cache_budget();
  for (const auto& per : budget.per_study) {
    EXPECT_LE(per.stats.entries, per.stats.capacity) << per.name;
    EXPECT_EQ(per.quota, 80u) << per.name;
  }
  EXPECT_GT(budget.per_study[0].stats.hits, 0u);

  // The service's aggregate view reports the shared budget as capacity.
  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.cache.capacity, config.total_cache_capacity);
}

// -- Concurrency: the TSan target for the multi-study stack. Four clients
// hammer different studies through one server while a fifth thread reads
// the service stats and the cache budget.

TEST(StudyCatalog, ConcurrentMultiStudyLoadStaysByteIdentical) {
  auto catalog = make_catalog();
  OracleService service(catalog.get());
  OracleServer server(&service);
  server.start();
  const std::uint16_t port = server.port();

  // Ground truth first, so client threads only compare strings.
  std::array<std::vector<std::string>, 3> expected;
  for (int s = 0; s < 3; ++s)
    for (const OracleRequest& request : fixtures()[s].queries)
      expected[s].push_back(to_text(service.answer(request, kNames[s])));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      // Each client walks all three studies, offset by its own stride.
      OracleClient::Config cc;
      cc.port = port;
      for (int s = 0; s < 3; ++s) {
        cc.study = kNames[s];
        OracleClient client(cc);
        const auto& queries = fixtures()[s].queries;
        for (std::size_t i = t; i < queries.size(); i += kClients)
          if (to_text(client.call(queries[i])) != expected[s][i])
            ++mismatches[t];
      }
    });
  }
  // A fifth thread snapshots stats and the cache budget concurrently.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)service.stats();
      (void)catalog->cache_budget();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  reader.join();

  for (int t = 0; t < kClients; ++t)
    EXPECT_EQ(mismatches[t], 0) << "client " << t;
  EXPECT_EQ(server.stats().requests_unknown_study, 0u);

  server.shutdown();
}

}  // namespace
}  // namespace irp
