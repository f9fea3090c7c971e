// OracleWire client: a synchronous, retrying TCP client for OracleServer.
//
// call() sends one request frame and blocks until the matching response
// arrives (request ids are matched, so a server answering out of order is
// fine). The connection is established lazily on the first call and reused
// across calls; any transport failure closes it so the next attempt starts
// clean.
//
// Failure taxonomy — every failure mode has a distinct type, so callers can
// react precisely:
//   * WireTransportError — the TCP layer failed (connect refused/timeout,
//     read timeout, peer closed mid-reply). `kind()` says which. Transient
//     by definition: call() retries these itself, up to `max_retries` times
//     with doubling backoff, before letting the error escape. Retrying is
//     safe because every oracle query is a pure read.
//   * WireDecodeError (wire.hpp) — the server sent bytes that do not parse.
//     Never retried: a peer that corrupts frames cannot be trusted with a
//     resend.
//   * OracleServerError — the server answered with a kError frame. Only
//     kOverloaded and kShuttingDown are retried (backoff gives a server
//     that sheds time to recover); kMalformedRequest and kInternal escape
//     at once since a resend would fail identically.
//
// The client is single-threaded by design (one in-flight request per
// instance); share load by creating one client per thread, as
// test_oracle_server's concurrency test does.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/wire.hpp"

namespace irp {

/// TCP/connection-level failure; retried internally up to Config::max_retries.
class WireTransportError : public CheckError {
 public:
  enum class Kind : std::uint8_t {
    kConnect,  ///< Could not establish the TCP connection in time.
    kTimeout,  ///< Connected, but no full reply within read_timeout.
    kClosed,   ///< Peer closed the connection before the reply completed.
    kIo,       ///< send()/recv() failed outright.
  };
  WireTransportError(Kind kind, const std::string& what)
      : CheckError(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// The server refused to answer: a kError frame, surfaced after the retry
/// budget (for retryable codes) or immediately (for the rest).
class OracleServerError : public CheckError {
 public:
  OracleServerError(WireErrorCode code, const std::string& what)
      : CheckError(what), code_(code) {}
  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

/// Synchronous OracleWire client; one in-flight request at a time.
class OracleClient {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::chrono::milliseconds connect_timeout{2000};
    /// Budget for one complete reply (applies per attempt, not per byte).
    std::chrono::milliseconds read_timeout{5000};
    /// Extra attempts after the first, on transient failures only.
    int max_retries = 2;
    /// First retry waits this long; each further retry doubles it.
    std::chrono::milliseconds retry_backoff{50};
    /// Frames claiming a larger payload are rejected from the header alone.
    std::size_t max_frame_payload = kMaxWirePayload;
    /// Study id every request is routed to ("" = the server's default
    /// study). Nonempty ids make the client emit version-2 frames with
    /// kWireFlagStudy; a server that does not host the id answers every
    /// call with OracleServerError(kUnknownStudy), never retried.
    std::string study;
  };

  explicit OracleClient(Config config);
  ~OracleClient();

  OracleClient(const OracleClient&) = delete;
  OracleClient& operator=(const OracleClient&) = delete;

  /// Sends the request and blocks for its answer. Throws
  /// WireTransportError / WireDecodeError / OracleServerError as documented
  /// above. Reconnects and retries transient failures internally.
  OracleResponse call(const OracleRequest& request);

  /// True while a TCP connection is established (informational).
  bool connected() const { return fd_ >= 0; }

  /// Closes the connection; the next call() reconnects.
  void disconnect();

 private:
  void ensure_connected();
  void send_all(const std::string& bytes,
                std::chrono::steady_clock::time_point deadline);
  WireFrame read_frame(std::chrono::steady_clock::time_point deadline);
  OracleResponse attempt(const OracleRequest& request);

  Config config_;
  int fd_ = -1;
  std::string in_buf_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace irp
