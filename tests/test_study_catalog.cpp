// StudyCatalog tests: N snapshots behind one endpoint must be
// indistinguishable from N single-study oracles.
//
// The headline guarantee is byte identity for N=3: every query answered by
// the catalog-backed service — locally and over the wire with the
// version-2 study flag — renders to exactly the text a dedicated
// single-study service produces for the same snapshot. On top of that:
// pre-multi-study (version 1) clients keep working against the default
// study; unknown study ids reject with the typed error at every layer
// (answer/submit/wire); the shared classify-cache budget is enforced and
// rebalances toward hot studies; the shared path arena deduplicates
// identical studies; and the whole stack is exercised under concurrent
// multi-study load (the TSan target for this subsystem).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  OracleSnapshot snapshot;  ///< Baseline copy with its own path table.
  std::unique_ptr<OracleIndex> index;
  std::vector<OracleRequest> queries;
};

StudyFixture make_fixture(std::uint64_t seed) {
  StudyFixture f;
  f.net = generate_internet(test::small_generator_config(seed));
  f.passive = run_passive_study(*f.net, test::small_passive_config());
  f.snapshot = snapshot_study(f.passive);
  f.index = std::make_unique<OracleIndex>(&f.snapshot);

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

/// Fresh catalog over the three fixtures (fresh snapshot copies, since
/// add_study remaps route PathIds into the shared arena).
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

// -- Byte identity: the catalog answers exactly like N dedicated oracles.

TEST(StudyCatalog, ThreeStudyServiceMatchesSingleStudyServicesLocally) {
  auto catalog = make_catalog();
  OracleService multi(catalog.get(), OracleService::Config{0, 4096});

  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    OracleService single(f.index.get(), OracleService::Config{0, 1});
    for (const OracleRequest& request : f.queries)
      EXPECT_EQ(to_text(multi.answer(request, kNames[s])),
                to_text(single.answer(request)))
          << "study " << kNames[s];
  }

  // Per-study accounting: the queued path (answer() is a synchronous
  // bypass and deliberately does not count as "served", unlike serve())
  // routes each submission to the right study slot.
  std::vector<std::future<OracleResponse>> responses;
  std::array<std::size_t, 3> submitted{};
  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    for (std::size_t i = 0; i < f.queries.size(); i += 10) {
      OracleService::Submitted sub = multi.submit(f.queries[i], kNames[s]);
      ASSERT_TRUE(sub.accepted);
      responses.push_back(std::move(sub.response));
      ++submitted[s];
    }
  }
  const std::size_t total = submitted[0] + submitted[1] + submitted[2];
  EXPECT_EQ(multi.drain(), total);
  for (auto& response : responses) (void)response.get();

  const OracleStatsView stats = multi.stats();
  EXPECT_EQ(stats.served, total);
  ASSERT_EQ(stats.per_study.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(stats.per_study[s].name, kNames[s]);
    EXPECT_EQ(stats.per_study[s].served, submitted[s]);
  }
}

// -- One accounting path: serve() (the wire's entry point) and the queue
// count the same stream identically, rebalancing included.

TEST(StudyCatalog, ServeAndQueueCountIdentically) {
  StudyCatalogConfig catalog_config;
  catalog_config.total_cache_capacity = 240;
  catalog_config.min_study_cache_quota = 32;
  OracleService::Config config{0, 1u << 16};
  config.cache_rebalance_every = 64;

  // epoch-a runs hot (its classify stream twice); the others once, sparse.
  std::vector<std::pair<OracleRequest, std::string>> stream;
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : fixtures()[0].queries)
      stream.emplace_back(request, kNames[0]);
  for (int s = 1; s < 3; ++s)
    for (std::size_t i = 0; i < fixtures()[s].queries.size(); i += 5)
      stream.emplace_back(fixtures()[s].queries[i], kNames[s]);
  stream.emplace_back(OracleRequest{RelationshipLookupRequest{1, 2}}, "nope");

  auto direct_catalog = make_catalog(catalog_config);
  OracleService direct(direct_catalog.get(), config);
  std::vector<std::string> direct_answers;
  for (const auto& [request, study] : stream) {
    try {
      direct_answers.push_back(to_text(direct.serve(request, study)));
    } catch (const UnknownStudyError&) {
      direct_answers.push_back("unknown");
    }
  }

  auto queued_catalog = make_catalog(catalog_config);
  OracleService queued(queued_catalog.get(), config);
  std::vector<OracleService::Submitted> submitted;
  for (const auto& [request, study] : stream)
    submitted.push_back(queued.submit(request, study));
  EXPECT_EQ(queued.drain(), stream.size() - 1);
  std::vector<std::string> queued_answers;
  for (OracleService::Submitted& sub : submitted)
    queued_answers.push_back(sub.accepted ? to_text(sub.response.get())
                                          : "unknown");
  EXPECT_EQ(direct_answers, queued_answers);

  const OracleStatsView a = direct.stats();
  const OracleStatsView b = queued.stats();
  EXPECT_EQ(a.served, stream.size() - 1);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.unknown_study, 1u);
  EXPECT_EQ(a.unknown_study, b.unknown_study);
  EXPECT_EQ(a.peak_queue_depth, 0u);  // serve() never touches the queue.
  for (int t = 0; t < kNumQueryTypes; ++t)
    EXPECT_EQ(a.per_type[t].served, b.per_type[t].served) << "type " << t;
  ASSERT_EQ(a.per_study.size(), 3u);
  ASSERT_EQ(b.per_study.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.per_study[s].served, b.per_study[s].served) << kNames[s];
    EXPECT_EQ(a.per_study[s].cache.hits, b.per_study[s].cache.hits);
    EXPECT_EQ(a.per_study[s].cache.misses, b.per_study[s].cache.misses);
  }

  // Both paths drove the periodic rebalance to the same quotas, away from
  // the even split at load.
  const StudyCatalog::CacheBudgetView qa = direct_catalog->cache_budget();
  const StudyCatalog::CacheBudgetView qb = queued_catalog->cache_budget();
  for (int s = 0; s < 3; ++s)
    EXPECT_EQ(qa.per_study[s].quota, qb.per_study[s].quota) << kNames[s];
  EXPECT_GT(qa.per_study[0].quota, 80u);
}

TEST(StudyCatalog, ThreeStudyServerMatchesSingleStudyServersOverWire) {
  auto catalog = make_catalog();
  OracleService multi_service(catalog.get(), OracleService::Config{2, 1024});
  OracleServer multi_server(&multi_service);
  multi_server.start();

  for (int s = 0; s < 3; ++s) {
    const StudyFixture& f = fixtures()[s];
    // The single-study ground truth, served by its own process-local stack.
    OracleService single(f.index.get(), OracleService::Config{2, 1024});
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
    single.shutdown();
  }

  EXPECT_EQ(multi_server.stats().requests_unknown_study, 0u);
  multi_server.shutdown();
  multi_service.shutdown();
}

TEST(StudyCatalog, Version1ClientGetsTheDefaultStudy) {
  auto catalog = make_catalog();
  OracleService service(catalog.get(), OracleService::Config{2, 1024});
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
              to_text(service.answer(def.queries[i])));
    ++id;
  }
  ::close(fd);

  server.shutdown();
  service.shutdown();
}

// -- Unknown studies reject with the typed error at every layer.

TEST(StudyCatalog, UnknownStudyRejectsAtEveryLayer) {
  auto catalog = make_catalog();
  OracleService service(catalog.get(), OracleService::Config{1, 64});
  const OracleRequest request{RelationshipLookupRequest{1, 2}};

  // answer(): the typed exception carries the offending id.
  try {
    (void)service.answer(request, "nope");
    FAIL() << "answer against an unknown study succeeded";
  } catch (const UnknownStudyError& e) {
    EXPECT_EQ(e.study(), "nope");
  }

  // submit(): a typed rejection, not an overload.
  OracleService::Submitted sub = service.submit(request, "nope");
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reject, OracleService::Reject::kUnknownStudy);
  EXPECT_EQ(service.stats().unknown_study, 2u);

  // Known studies are untouched by the failures above.
  EXPECT_TRUE(service.submit(request, kNames[1]).accepted);

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
  service.shutdown();
}

// -- Shared classify-cache budget.

TEST(StudyCatalog, CacheBudgetIsSharedAndEnforced) {
  StudyCatalogConfig config;
  config.total_cache_capacity = 240;
  config.min_study_cache_quota = 32;
  auto catalog = make_catalog(config);

  // On load every study gets an even split of the budget.
  StudyCatalog::CacheBudgetView budget = catalog->cache_budget();
  EXPECT_EQ(budget.total_capacity, 240u);
  ASSERT_EQ(budget.per_study.size(), 3u);
  std::size_t total_quota = 0;
  for (const auto& per : budget.per_study) {
    EXPECT_EQ(per.quota, 80u);
    total_quota += per.quota;
  }
  EXPECT_LE(total_quota, config.total_cache_capacity);

  // Make epoch-a hot: run its classify stream twice so it accrues hits,
  // while the others stay cold.
  OracleService service(catalog.get(), OracleService::Config{0, 1});
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : fixtures()[0].queries)
      if (std::holds_alternative<ClassifyRequest>(request))
        (void)service.answer(request, kNames[0]);

  // Enforcement: no study's cache exceeds its quota even though the hot
  // stream has far more distinct keys than the quota.
  budget = catalog->cache_budget();
  for (const auto& per : budget.per_study)
    EXPECT_LE(per.stats.entries, per.stats.capacity) << per.name;
  EXPECT_GT(budget.per_study[0].stats.hits, 0u);

  // Rebalancing moves budget toward the hot study, keeps every study at or
  // above the floor, and never exceeds the total.
  catalog->rebalance_cache();
  budget = catalog->cache_budget();
  total_quota = 0;
  for (const auto& per : budget.per_study) {
    EXPECT_GE(per.quota, config.min_study_cache_quota) << per.name;
    total_quota += per.quota;
  }
  EXPECT_LE(total_quota, config.total_cache_capacity);
  EXPECT_GT(budget.per_study[0].quota, budget.per_study[1].quota);
  EXPECT_GT(budget.per_study[0].quota, budget.per_study[2].quota);

  // The service's aggregate view reports the shared budget as capacity.
  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.cache.capacity, config.total_cache_capacity);
}

// -- Shared path arena.

TEST(StudyCatalog, ArenaDeduplicatesIdenticalStudies) {
  // Two studies frozen from the same passive dataset: every path suffix of
  // the second already lives in the arena, so sharing is ~100%.
  StudyCatalog catalog;
  catalog.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  catalog.add_study("epoch-a2", snapshot_study(fixtures()[0].passive));

  const StudyCatalog::ArenaStats arena = catalog.arena_stats();
  EXPECT_EQ(arena.sum_study_paths, 2 * catalog.studies()[0]->own_paths);
  EXPECT_EQ(arena.arena_paths, catalog.studies()[0]->own_paths);
  EXPECT_NEAR(arena.sharing(), 0.5, 1e-9);

  // Identical content, distinct names: both studies answer identically.
  OracleService service(&catalog, OracleService::Config{0, 1});
  const StudyFixture& f = fixtures()[0];
  for (std::size_t i = 0; i < f.queries.size(); i += 13)
    EXPECT_EQ(to_text(service.answer(f.queries[i], "epoch-a")),
              to_text(service.answer(f.queries[i], "epoch-a2")));

  // Distinct studies still share suffixes, just fewer of them.
  auto three = make_catalog();
  const StudyCatalog::ArenaStats mixed = three->arena_stats();
  EXPECT_LT(mixed.arena_paths, mixed.sum_study_paths);
  EXPECT_GT(mixed.sharing(), 0.0);
}

// -- Concurrency: the TSan target for the multi-study stack. Four clients
// hammer different studies through one server while the cache budget is
// rebalanced live.

TEST(StudyCatalog, ConcurrentMultiStudyLoadStaysByteIdentical) {
  auto catalog = make_catalog();
  OracleService::Config sc;
  sc.worker_threads = 4;
  sc.queue_capacity = 1024;
  sc.cache_rebalance_every = 64;  // Exercise live rebalancing under load.
  OracleService service(catalog.get(), sc);
  OracleServer server(&service);
  server.start();
  const std::uint16_t port = server.port();

  // Ground truth first, so worker threads only compare strings.
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
  // A fifth thread rebalances and snapshots stats concurrently.
  std::atomic<bool> done{false};
  std::thread rebalancer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      catalog->rebalance_cache();
      (void)service.stats();
      (void)catalog->cache_budget();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  rebalancer.join();

  for (int t = 0; t < kClients; ++t)
    EXPECT_EQ(mismatches[t], 0) << "client " << t;
  EXPECT_EQ(server.stats().requests_unknown_study, 0u);

  server.shutdown();
  service.shutdown();
}

}  // namespace
}  // namespace irp
