// OracleWire server: a poll(2)-driven multi-client TCP front for
// OracleService.
//
// One background thread owns every socket and runs each request to
// completion: it accepts connections, reads and frame-decodes requests
// (wire.hpp), evaluates each one through OracleService::serve(), encodes
// the answer and appends it to the connection's output, all in the same
// wake. Nothing queues between the socket and the index, the service needs
// no worker threads, and the loop sleeps in poll() until traffic, the wake
// pipe, or the drain deadline.
//
// Overload is TCP backpressure, not shedding. Each connection may hold a
// fixed number of unsent reply bytes; above it the loop stops reading that
// connection until its client reads, so the client's sends block while
// every other connection is served. No request is dropped and the server
// never emits kOverloaded (the code stays reserved in the protocol).
//
// Robustness rules (all tested in test_oracle_server):
//   * Malformed bytes — bad magic, wrong version, oversized or corrupt
//     frames — earn one kMalformedRequest error frame and a hard close of
//     that connection. A byte stream that failed to frame-decode cannot be
//     resynchronized, so the server never tries.
//   * A request frame that frame-decodes but not request-decodes gets a
//     kMalformedRequest error frame; the connection stays open (framing is
//     intact, only that one payload was bad).
//   * Connections beyond `max_connections` are accepted and immediately
//     closed (counted, never serviced).
//   * shutdown() drains gracefully: the listen socket closes first (new
//     connections refused), every request already read is answered and
//     flushed, then connections close. A drain deadline bounds how long a
//     non-reading client can hold shutdown hostage.
//
// Observability: WireServerStats counts connections (accepted / refused /
// closed), frames and bytes in both directions, admitted requests and
// decode errors, and per-query-type wire latency histograms measured from
// frame decode to response queued (evaluation plus encoding; OracleStatsView
// has the evaluation-only view). Each counter is bumped before the effect
// it counts is visible to a peer, so a client that saw a reply, an EOF or
// an error frame also sees it counted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/oracle_service.hpp"
#include "serve/wire.hpp"

namespace irp {

/// Copyable server counters snapshot; see OracleServer::stats().
struct WireServerStats {
  struct PerType {
    std::uint64_t answered = 0;  ///< Response frames sent for this type.
    double p50_us = 0;           ///< Wire latency: decode -> response queued.
    double p99_us = 0;
  };
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< Over max_connections, or drain.
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests_admitted = 0;  ///< Evaluated against a hosted study.
  std::uint64_t requests_shed = 0;  ///< kOverloaded frames sent; always 0
                                    ///< (overload is backpressure).
  std::uint64_t requests_unknown_study = 0;  ///< kUnknownStudy frames sent.
  std::uint64_t decode_errors = 0;      ///< Connections poisoned by bad bytes.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;  ///< Counted as each send() returns.
  std::array<PerType, kNumQueryTypes> per_type{};
};

/// TCP front for one OracleService. The service (and its index/snapshot)
/// must outlive the server; it may run with worker_threads == 0, since the
/// server never uses its queue.
class OracleServer {
 public:
  struct Config {
    /// Address to bind; the default serves loopback only. Use "0.0.0.0" to
    /// accept remote hosts.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back with port()).
    std::uint16_t port = 0;
    /// Connections beyond this are accepted and immediately closed.
    int max_connections = 64;
    /// Frames claiming a larger payload are rejected from the header alone.
    std::size_t max_frame_payload = kMaxWirePayload;
    /// Graceful-drain bound: shutdown() force-closes connections that have
    /// not flushed within this many milliseconds.
    int drain_timeout_ms = 5000;
  };

  OracleServer(OracleService* service, Config config);
  explicit OracleServer(OracleService* service);
  ~OracleServer();  ///< Calls shutdown().

  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Binds, listens, and starts the poll thread. Throws CheckError when the
  /// address cannot be bound. Call at most once.
  void start();

  /// The actually bound TCP port (resolves port == 0); valid after start().
  std::uint16_t port() const;

  /// Graceful drain: refuses new connections, answers every request
  /// already read, flushes and closes every connection (bounded by
  /// drain_timeout_ms), joins the poll thread. Idempotent.
  void shutdown();

  WireServerStats stats() const;

 private:
  struct Impl;

  void poll_loop();

  OracleService* service_;
  Config config_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace irp
