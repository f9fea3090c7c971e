// OracleWire end-to-end tests: a real OracleServer on a loopback TCP port.
//
// The headline guarantee is byte identity: a query answered over the wire
// renders to exactly the same text as the same query answered by the local
// OracleService — serially and from four concurrent clients (run under
// IRP_SANITIZE=thread this is the data-race check for the transport).
//
// The rest is fault injection with raw sockets, below the OracleClient so
// the server's behavior is observed directly: a client that floods without
// reading is throttled by TCP flow control while other connections are
// served, and none of its requests is shed; garbage bytes poison exactly
// one connection; a malformed payload inside a
// well-framed request keeps the connection alive; client timeouts, refused
// connects, connection caps, and graceful shutdown all surface as their
// documented error kinds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/oracle_service.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

struct ServerFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  OracleSnapshot snapshot;
  std::unique_ptr<OracleIndex> index;
  std::vector<OracleRequest> queries;
};

const ServerFixture& fixture() {
  static const ServerFixture fx = [] {
    ServerFixture f;
    f.net = generate_internet(test::small_generator_config());
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
    return f;
  }();
  return fx;
}

// -- Raw-socket helpers for the fault-injection tests.

/// Blocking loopback connect; returns the fd (or -1, failing the test).
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

/// Reads until `count` frames decode (or the deadline/EOF fails the test).
std::vector<WireFrame> read_frames(int fd, std::size_t count,
                                   int timeout_ms = 5000) {
  std::vector<WireFrame> frames;
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (frames.size() < count) {
    while (auto frame = try_decode_frame(buffer)) {
      frames.push_back(std::move(*frame));
      if (frames.size() == count) return frames;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      ADD_FAILURE() << "timed out with " << frames.size() << "/" << count
                    << " frames";
      return frames;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed with " << frames.size() << "/"
                    << count << " frames";
      return frames;
    }
    buffer.append(buf, static_cast<std::size_t>(n));
  }
  return frames;
}

/// True when the peer closes the connection within the timeout.
bool reaches_eof(int fd, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0) return true;  // Reset counts as closed too.
  }
}

WireError expect_error_frame(const WireFrame& frame) {
  EXPECT_EQ(frame.type, FrameType::kError);
  const auto reply = decode_reply(frame);
  return std::get<WireError>(reply);
}

// -- Byte identity against the local service.

TEST(OracleServerE2E, RemoteAnswersAreByteIdenticalToLocalSerial) {
  const ServerFixture& f = fixture();
  ASSERT_GT(f.queries.size(), 100u);
  OracleService service(f.index.get(), OracleService::Config{2, 1024});
  OracleServer server(&service);
  server.start();

  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  for (const OracleRequest& request : f.queries)
    EXPECT_EQ(to_text(client.call(request)), to_text(service.answer(request)));

  // The wire counters describe exactly this workload. to_text() above ran
  // each query a second time locally, so compare against the server's view.
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_refused, 0u);
  EXPECT_EQ(stats.frames_in, f.queries.size());
  EXPECT_EQ(stats.frames_out, f.queries.size());
  EXPECT_EQ(stats.requests_admitted, f.queries.size());
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  std::uint64_t answered = 0;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    answered += stats.per_type[t].answered;
    if (stats.per_type[t].answered > 0) {
      EXPECT_GT(stats.per_type[t].p50_us, 0.0);
      EXPECT_GE(stats.per_type[t].p99_us, stats.per_type[t].p50_us);
    }
  }
  EXPECT_EQ(answered, f.queries.size());

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, ConcurrentClientsStayByteIdentical) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{4, 256});
  OracleServer server(&service);
  server.start();
  const std::uint16_t port = server.port();

  // Local ground truth first, so worker threads only compare strings.
  std::vector<std::string> expected;
  expected.reserve(f.queries.size());
  for (const OracleRequest& request : f.queries)
    expected.push_back(to_text(service.answer(request)));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      OracleClient::Config cc;
      cc.port = port;
      OracleClient client(cc);  // One client per thread; single in-flight.
      for (std::size_t i = t; i < f.queries.size(); i += kClients)
        if (to_text(client.call(f.queries[i])) != expected[i]) ++mismatches[t];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kClients; ++t) EXPECT_EQ(mismatches[t], 0) << "client " << t;

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests_admitted, f.queries.size());
  EXPECT_EQ(stats.decode_errors, 0u);

  server.shutdown();
  service.shutdown();
}

// -- Run to completion: the server answers on its poll thread, so it needs
// no service workers, and overload is TCP backpressure, never a shed.

TEST(OracleServerE2E, RunsWithoutServiceWorkers) {
  const ServerFixture& f = fixture();
  // No workers, never drained: a queued request would wait forever.
  OracleService service(f.index.get(), OracleService::Config{0, 1});
  OracleServer server(&service);
  server.start();

  OracleClient::Config cc;
  cc.port = server.port();
  cc.max_retries = 0;
  OracleClient client(cc);
  constexpr std::size_t kCalls = 50;
  for (std::size_t i = 0; i < kCalls; ++i)
    EXPECT_EQ(to_text(client.call(f.queries[i])),
              to_text(service.answer(f.queries[i])));

  // Every wire request went through the counted path, none through the
  // queue.
  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, kCalls);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
  EXPECT_EQ(server.stats().requests_admitted, kCalls);

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, FloodingClientIsThrottledNotShed) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{0, 1});
  OracleServer server(&service);
  server.start();

  // The alternate-routes query with the largest answer, so unread replies
  // pile up fast.
  OracleRequest request;
  std::size_t reply_bytes = 0;
  for (const OracleRequest& q : f.queries) {
    if (!std::holds_alternative<AlternateRoutesRequest>(q)) continue;
    const std::size_t bytes = encode_response(0, service.answer(q)).size();
    if (bytes > reply_bytes) {
      reply_bytes = bytes;
      request = q;
    }
  }
  ASSERT_GT(reply_bytes, encode_request(0, request).size());
  const std::string expected = to_text(service.answer(request));

  // Pipeline without reading until the server stops reading too: sends
  // stay blocked once the unsent-bytes cap and every socket buffer on the
  // way are full.
  const int flood = connect_loopback(server.port());
  ASSERT_GE(flood, 0);
  std::uint64_t frames = 0;
  std::string pending;
  std::size_t pending_off = 0;
  std::uint64_t bytes_sent = 0;
  auto quiet_since = std::chrono::steady_clock::now();
  for (;;) {
    if (pending_off == pending.size()) {
      pending.clear();
      pending_off = 0;
      for (int i = 0; i < 256; ++i)
        pending += encode_request(++frames, request);
    }
    const ssize_t n = ::send(flood, pending.data() + pending_off,
                             pending.size() - pending_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      pending_off += static_cast<std::size_t>(n);
      bytes_sent += static_cast<std::uint64_t>(n);
      quiet_since = std::chrono::steady_clock::now();
      ASSERT_LT(bytes_sent, 32u << 20) << "the server never pushed back";
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        << std::strerror(errno);
    if (std::chrono::steady_clock::now() - quiet_since >
        std::chrono::milliseconds(300))
      break;
    pollfd pfd{flood, POLLOUT, 0};
    ::poll(&pfd, 1, 50);
  }
  // The server stopped reading well short of what was sent, and dropped
  // nothing it did read.
  WireServerStats stats = server.stats();
  EXPECT_LT(stats.bytes_in, bytes_sent);
  EXPECT_LT(stats.frames_in, frames);
  EXPECT_EQ(stats.frames_out, stats.frames_in);

  // Another connection is unaffected: answered promptly, byte-identical.
  {
    OracleClient::Config cc;
    cc.port = server.port();
    cc.max_retries = 0;
    cc.read_timeout = std::chrono::milliseconds(2000);
    OracleClient other(cc);
    for (std::size_t i = 0; i < 20; ++i)
      EXPECT_EQ(to_text(other.call(f.queries[i])),
                to_text(service.answer(f.queries[i])));
  }

  // The flooder now reads (and sends the tail of its last batch): every
  // answer arrives, in id order.
  std::string in;
  std::uint64_t next_id = 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (next_id <= frames && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{flood,
               static_cast<short>(POLLIN |
                                  (pending_off < pending.size() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    if (pfd.revents & POLLOUT) {
      const ssize_t n = ::send(flood, pending.data() + pending_off,
                               pending.size() - pending_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) pending_off += static_cast<std::size_t>(n);
    }
    if (!(pfd.revents & POLLIN)) continue;
    char buf[65536];
    const ssize_t n = ::recv(flood, buf, sizeof buf, MSG_DONTWAIT);
    ASSERT_NE(n, 0) << "server closed the flooding connection";
    if (n < 0) continue;
    in.append(buf, static_cast<std::size_t>(n));
    while (auto frame = try_decode_frame(in)) {
      ASSERT_EQ(frame->request_id, next_id);
      const auto reply = decode_reply(*frame);
      ASSERT_TRUE(std::holds_alternative<OracleResponse>(reply));
      if (next_id % 1000 == 1)
        EXPECT_EQ(to_text(std::get<OracleResponse>(reply)), expected);
      ++next_id;
    }
  }
  EXPECT_EQ(next_id, frames + 1) << "answers missing";
  ::close(flood);

  server.shutdown();
  stats = server.stats();
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.frames_in, frames + 20);
  EXPECT_EQ(stats.frames_out, stats.frames_in);
  EXPECT_EQ(stats.requests_admitted, frames + 20);
  service.shutdown();
}

// -- Malformed input.

TEST(OracleServerE2E, GarbageBytesPoisonOnlyThatConnection) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer server(&service);
  server.start();

  const int bad = connect_loopback(server.port());
  ASSERT_GE(bad, 0);
  send_bytes(bad, std::string(64, 'x'));  // Not a frame by any reading.
  const auto frames = read_frames(bad, 1);
  ASSERT_EQ(frames.size(), 1u);
  const WireError err = expect_error_frame(frames[0]);
  EXPECT_EQ(err.code, WireErrorCode::kMalformedRequest);
  EXPECT_EQ(frames[0].request_id, 0u);  // No frame, so no id to echo.
  EXPECT_TRUE(reaches_eof(bad));        // Framing gone -> hard close.
  ::close(bad);

  // A well-behaved client on a fresh connection is unaffected.
  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  EXPECT_EQ(to_text(client.call(f.queries[0])),
            to_text(service.answer(f.queries[0])));
  EXPECT_GE(server.stats().decode_errors, 1u);

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, MalformedPayloadKeepsConnectionAlive) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer server(&service);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // Perfect framing, broken payload: relationship lookup needs 8 bytes.
  WireFrame bad;
  bad.type = FrameType::kRelationshipLookupRequest;
  bad.request_id = 5;
  bad.payload = std::string(4, '\0');
  send_bytes(fd, encode_frame(bad));

  auto frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(expect_error_frame(frames[0]).code,
            WireErrorCode::kMalformedRequest);
  EXPECT_EQ(frames[0].request_id, 5u);

  // The same connection still serves valid requests afterwards.
  send_bytes(fd, encode_request(6, OracleRequest{RelationshipLookupRequest{
                                      1, 2}}));
  frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 6u);
  EXPECT_EQ(frames[0].type, FrameType::kRelationshipLookupResponse);

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.requests_admitted, 1u);

  ::close(fd);
  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, OversizedClaimAgainstServerLimitClosesConnection) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer::Config sc;
  sc.max_frame_payload = 16;  // Tighter than the protocol-wide bound.
  OracleServer server(&service, sc);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // A relationship lookup (8-byte payload) fits under the 16-byte limit...
  send_bytes(fd, encode_request(1, OracleRequest{RelationshipLookupRequest{
                                      1, 2}}));
  auto frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kRelationshipLookupResponse);

  // ...but a classify request (59-byte payload) is oversized for this
  // server even though it is valid protocol; the claim is rejected from the
  // header alone and the connection poisoned.
  ClassifyRequest classify;
  for (const OracleRequest& q : f.queries)
    if (std::holds_alternative<ClassifyRequest>(q)) {
      classify = std::get<ClassifyRequest>(q);
      break;
    }
  send_bytes(fd, encode_request(2, OracleRequest{classify}));
  frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(expect_error_frame(frames[0]).code,
            WireErrorCode::kMalformedRequest);
  EXPECT_TRUE(reaches_eof(fd));
  ::close(fd);

  server.shutdown();
  service.shutdown();
}

// -- Connection management.

TEST(OracleServerE2E, ConnectionsOverCapAreRefused) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer::Config sc;
  sc.max_connections = 1;
  OracleServer server(&service, sc);
  server.start();

  const int first = connect_loopback(server.port());
  ASSERT_GE(first, 0);
  // Prove the first connection is established server-side before the
  // second arrives, so the refusal is deterministic.
  send_bytes(first, encode_request(1, OracleRequest{RelationshipLookupRequest{
                                          1, 2}}));
  ASSERT_EQ(read_frames(first, 1).size(), 1u);

  const int second = connect_loopback(server.port());
  ASSERT_GE(second, 0);  // TCP accepts, then the server closes immediately.
  EXPECT_TRUE(reaches_eof(second));
  EXPECT_EQ(server.stats().connections_refused, 1u);
  ::close(second);
  ::close(first);

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, ShutdownDrainsThenRefusesNewConnections) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  auto server = std::make_unique<OracleServer>(&service);
  server->start();
  const std::uint16_t port = server->port();

  OracleClient::Config cc;
  cc.port = port;
  cc.max_retries = 0;
  {
    OracleClient client(cc);
    EXPECT_EQ(to_text(client.call(f.queries[0])),
              to_text(service.answer(f.queries[0])));
  }
  server->shutdown();
  EXPECT_EQ(server->stats().connections_closed,
            server->stats().connections_accepted);

  // The port no longer listens; a fresh client fails with kConnect.
  OracleClient late(cc);
  try {
    (void)late.call(f.queries[0]);
    FAIL() << "call succeeded against a shut-down server";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kConnect);
  }

  server.reset();  // Destructor after explicit shutdown is a no-op.
  service.shutdown();
}

// -- EINTR injection: client calls must survive interrupted syscalls.

std::atomic<int> g_sigusr1_count{0};
void count_sigusr1(int) { g_sigusr1_count.fetch_add(1); }

TEST(OracleClientRobustness, CallsSurviveInterruptedSyscalls) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{2, 256});
  OracleServer server(&service);
  server.start();

  OracleClient::Config cc;
  cc.port = server.port();
  cc.max_retries = 0;  // EINTR must be absorbed below the retry layer.
  OracleClient client(cc);
  // Establish the connection before the signal storm starts; the EINTR
  // contract under test is send_all/read_frame, not the connect handshake.
  ASSERT_EQ(to_text(client.call(f.queries[0])),
            to_text(service.answer(f.queries[0])));

  // A handler installed WITHOUT SA_RESTART makes every signal delivery fail
  // the interrupted syscall with EINTR instead of restarting it.
  struct sigaction sa {}, old {};
  sa.sa_handler = count_sigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  // Pepper only this thread — the one blocking in the client's
  // send/poll/recv — with signals for the duration of the query stream.
  std::atomic<bool> done{false};
  const pthread_t victim = pthread_self();
  std::thread pepper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  int mismatches = 0;
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : f.queries)
      if (to_text(client.call(request)) != to_text(service.answer(request)))
        ++mismatches;
  EXPECT_EQ(mismatches, 0);

  done.store(true);
  pepper.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
  // Prove the storm actually happened — otherwise the test proves nothing.
  EXPECT_GT(g_sigusr1_count.load(), 100);

  server.shutdown();
  service.shutdown();
}

// -- Client failure taxonomy, without any OracleServer at all.

TEST(OracleClientErrors, ReadTimeoutAgainstHangingServer) {
  // A listening socket that never accepts: the kernel completes the TCP
  // handshake from the backlog, then nothing ever answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len),
            0);

  OracleClient::Config cc;
  cc.port = ntohs(bound.sin_port);
  cc.read_timeout = std::chrono::milliseconds(100);
  cc.max_retries = 1;  // Prove the retry happens, then the error escapes.
  cc.retry_backoff = std::chrono::milliseconds(10);
  OracleClient client(cc);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)client.call(OracleRequest{RelationshipLookupRequest{1, 2}});
    FAIL() << "call against a hanging server succeeded";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kTimeout);
  }
  // Two attempts of ~100ms each plus one 10ms backoff must have elapsed.
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 200);
  ::close(listener);
}

TEST(OracleClientErrors, ConnectRefusedSurfacesAsConnectError) {
  // Grab an ephemeral port and release it; nothing listens there now.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  const std::uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  OracleClient::Config cc;
  cc.port = dead_port;
  cc.max_retries = 1;
  cc.retry_backoff = std::chrono::milliseconds(5);
  OracleClient client(cc);
  try {
    (void)client.call(OracleRequest{RelationshipLookupRequest{1, 2}});
    FAIL() << "call against a dead port succeeded";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kConnect);
  }
  EXPECT_FALSE(client.connected());
}

}  // namespace
}  // namespace irp
