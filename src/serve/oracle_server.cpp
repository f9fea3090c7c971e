#include "serve/oracle_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace irp {
namespace {

/// Per-connection cap on response bytes queued but not yet sent. Above it
/// the poll loop stops reading that connection, so TCP flow control pushes
/// back on a client that does not read its replies; nothing is dropped.
/// Large enough that a pipelining client never stalls on it.
constexpr std::size_t kMaxUnsentBytes = 256 * 1024;

/// Bytes read from one connection per wake, so one fast client cannot
/// starve the others.
constexpr std::size_t kReadChunk = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  IRP_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  IRP_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(F_SETFL, O_NONBLOCK) failed");
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

struct OracleServer::Impl {
  struct Connection {
    int fd = -1;
    std::string in_buf;
    std::size_t in_off = 0;   ///< in_buf bytes already decoded.
    std::string out_buf;
    std::size_t out_off = 0;  ///< out_buf bytes already sent.
    bool read_closed = false;  ///< Peer EOF, poisoned stream, or draining;
                               ///< the connection closes once fully flushed.
    bool dead = false;         ///< Send failed; reaped without flushing.

    std::size_t unsent() const { return out_buf.size() - out_off; }
    /// Backpressure: a connection over the unsent-bytes cap is not read
    /// (nor its buffered frames decoded) until its peer drains replies.
    bool throttled() const { return unsent() >= kMaxUnsentBytes; }
  };

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::uint16_t bound_port = 0;
  std::vector<Connection> connections;
  std::vector<pollfd> fds;  ///< Rebuilt in place every wake.
  std::mutex shutdown_mu;

  struct PerType {
    std::atomic<std::uint64_t> answered{0};
    LatencyHistogram latency;
  };
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_refused{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> requests_admitted{0};
  std::atomic<std::uint64_t> requests_unknown_study{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::array<PerType, kNumQueryTypes> per_type;

  /// Counts first, then closes: a peer that sees EOF must also see the
  /// count. Every counter here is bumped before its effect is visible.
  void close_fd(int fd, std::atomic<std::uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
  }

  void queue_frame(Connection& conn, const std::string& frame_bytes) {
    frames_out.fetch_add(1, std::memory_order_relaxed);
    conn.out_buf += frame_bytes;
  }
};

OracleServer::OracleServer(OracleService* service, Config config)
    : service_(service), config_(std::move(config)),
      impl_(std::make_unique<Impl>()) {
  IRP_CHECK(service_ != nullptr, "oracle server requires a service");
  IRP_CHECK(config_.max_connections >= 1, "max_connections must be >= 1");
}

OracleServer::OracleServer(OracleService* service)
    : OracleServer(service, Config{}) {}

OracleServer::~OracleServer() { shutdown(); }

void OracleServer::start() {
  IRP_CHECK(!started_.load(), "oracle server already started");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  IRP_CHECK(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  IRP_CHECK(::inet_pton(AF_INET, config_.bind_address.c_str(),
                        &addr.sin_addr) == 1,
            "bad bind address " + config_.bind_address);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    IRP_CHECK(false, "cannot bind " + config_.bind_address + ":" +
                         std::to_string(config_.port) + " — " + err);
  }
  IRP_CHECK(::listen(fd, 64) == 0, "listen() failed");
  set_nonblocking(fd);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  IRP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
            "getsockname() failed");
  impl_->bound_port = ntohs(bound.sin_port);
  impl_->listen_fd = fd;

  int pipe_fds[2];
  IRP_CHECK(::pipe(pipe_fds) == 0, "pipe() failed");
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);

  thread_ = std::thread([this] { poll_loop(); });
  started_.store(true);
}

std::uint16_t OracleServer::port() const {
  IRP_CHECK(started_.load(), "oracle server not started");
  return impl_->bound_port;
}

void OracleServer::shutdown() {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
  stopping_.store(true);
  if (!thread_.joinable()) return;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(impl_->wake_write, &byte, 1);
  thread_.join();
  // Closed only after the join: the poll thread may see stopping_ and exit
  // before the write above, and the pipe must still be open for it.
  ::close(impl_->wake_read);
  ::close(impl_->wake_write);
}

WireServerStats OracleServer::stats() const {
  const Impl& im = *impl_;
  WireServerStats s;
  s.connections_accepted = im.connections_accepted.load();
  s.connections_refused = im.connections_refused.load();
  s.connections_closed = im.connections_closed.load();
  s.frames_in = im.frames_in.load();
  s.frames_out = im.frames_out.load();
  s.requests_admitted = im.requests_admitted.load();
  s.requests_unknown_study = im.requests_unknown_study.load();
  s.decode_errors = im.decode_errors.load();
  s.bytes_in = im.bytes_in.load();
  s.bytes_out = im.bytes_out.load();
  for (int t = 0; t < kNumQueryTypes; ++t) {
    s.per_type[t].answered = im.per_type[t].answered.load();
    s.per_type[t].p50_us = im.per_type[t].latency.quantile_us(0.50);
    s.per_type[t].p99_us = im.per_type[t].latency.quantile_us(0.99);
  }
  return s;
}

void OracleServer::poll_loop() {
  Impl& im = *impl_;
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  Clock::time_point drain_deadline{};

  // Answers one request frame on this thread: decode -> evaluate -> encode
  // -> append to the connection's output.
  auto answer_frame = [&](Impl::Connection& conn, const WireFrame& frame) {
    if (!is_request_frame(frame.type)) {
      im.decode_errors.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(frame.request_id,
                                        WireErrorCode::kMalformedRequest,
                                        "expected a request frame, got " +
                                            std::string(frame_type_name(
                                                frame.type))));
      return;
    }
    OracleRequest request;
    try {
      request = decode_request(frame);
    } catch (const WireDecodeError& e) {
      im.decode_errors.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(frame.request_id,
                                        WireErrorCode::kMalformedRequest,
                                        e.what()));
      return;
    }
    const auto decoded = Clock::now();
    OracleResponse response;
    try {
      response = service_->serve(request, frame.study);
    } catch (const UnknownStudyError&) {
      im.requests_unknown_study.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(frame.request_id,
                                        WireErrorCode::kUnknownStudy,
                                        "unknown study '" + frame.study + "'"));
      return;
    } catch (const std::exception& e) {
      im.requests_admitted.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(frame.request_id,
                                        WireErrorCode::kInternal, e.what()));
      return;
    }
    im.requests_admitted.fetch_add(1, std::memory_order_relaxed);
    const std::string bytes = encode_response(frame.request_id, response);
    Impl::PerType& pt = im.per_type[static_cast<int>(query_type(request))];
    pt.latency.record(elapsed_ns(decoded));
    pt.answered.fetch_add(1, std::memory_order_relaxed);
    im.queue_frame(conn, bytes);
  };

  // Answers the complete frames buffered on `conn` until they run out
  // (false) or the unsent-bytes cap stops it with frames maybe left (true).
  // A framing-level decode error poisons the connection: one error frame,
  // then close once flushed.
  auto consume_input = [&](Impl::Connection& conn) -> bool {
    try {
      for (;;) {
        if (conn.throttled()) return true;
        std::size_t consumed = 0;
        const std::optional<WireFrame> frame = try_decode_frame_at(
            std::string_view(conn.in_buf).substr(conn.in_off), &consumed,
            config_.max_frame_payload);
        if (!frame) return false;
        conn.in_off += consumed;
        im.frames_in.fetch_add(1, std::memory_order_relaxed);
        answer_frame(conn, *frame);
      }
    } catch (const WireDecodeError& e) {
      // Framing is gone; no resynchronization is possible.
      im.decode_errors.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(0, WireErrorCode::kMalformedRequest,
                                        e.what()));
      conn.in_buf.clear();
      conn.in_off = 0;
      conn.read_closed = true;
      return false;
    }
  };

  // Sends as much output as the socket takes; marks the connection dead
  // when the peer is gone.
  auto flush_output = [&](Impl::Connection& conn) {
    while (conn.unsent() > 0) {
      const ssize_t n = ::send(conn.fd, conn.out_buf.data() + conn.out_off,
                               conn.unsent(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        im.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
      } else if (n < 0 && errno == EINTR) {
        continue;  // Interrupted before any byte moved; just retry.
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // A client that reads slowly but steadily never empties the buffer;
        // reclaim the sent prefix once it outweighs what is left to send.
        if (conn.out_off > conn.unsent()) {
          conn.out_buf.erase(0, conn.out_off);
          conn.out_off = 0;
        }
        return;
      } else {
        conn.dead = true;  // Peer gone; the reaper drops the connection.
        return;
      }
    }
    conn.out_buf.clear();
    conn.out_off = 0;
  };

  // Answer, then send, until the buffered frames run out or the socket
  // stops taking bytes with the connection at its cap.
  auto serve_connection = [&](Impl::Connection& conn) {
    for (;;) {
      const bool more = consume_input(conn);
      flush_output(conn);
      if (!more || conn.dead || conn.throttled()) return;
    }
  };

  // Reads at most one chunk; sets read_closed when the peer sends no more.
  auto read_chunk = [&](Impl::Connection& conn) {
    // Drop the decoded prefix first, so in_buf holds at most one partial
    // frame plus this chunk.
    conn.in_buf.erase(0, conn.in_off);
    conn.in_off = 0;
    char buf[kReadChunk];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        im.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
        conn.in_buf.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;  // A signal is not a peer disconnect; retry the read.
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        conn.read_closed = true;
      }
      return;
    }
  };

  for (;;) {
    if (stopping_.load() && !draining) {
      draining = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
      if (im.listen_fd >= 0) {
        ::close(im.listen_fd);
        im.listen_fd = -1;
      }
      // Stop reading everywhere. Requests already read are answered.
      for (Impl::Connection& conn : im.connections) conn.read_closed = true;
    }

    // Reap. A connection dies when the peer vanished, or when it is fully
    // served (no reads coming, every buffered frame answered, all bytes
    // out), or when the drain deadline passed.
    const bool past_deadline = draining && Clock::now() >= drain_deadline;
    std::erase_if(im.connections, [&](const Impl::Connection& conn) {
      const bool done = conn.read_closed && conn.unsent() == 0;
      if (!(conn.dead || done || past_deadline)) return false;
      im.close_fd(conn.fd, im.connections_closed);
      return true;
    });
    if (draining && im.connections.empty()) break;

    // Poll: listen + wake pipe + every connection.
    im.fds.clear();
    if (im.listen_fd >= 0) im.fds.push_back(pollfd{im.listen_fd, POLLIN, 0});
    const std::size_t wake_slot = im.fds.size();
    im.fds.push_back(pollfd{im.wake_read, POLLIN, 0});
    const std::size_t polled = im.connections.size();
    for (const Impl::Connection& conn : im.connections) {
      short events = 0;
      if (!conn.read_closed && !conn.throttled()) events |= POLLIN;
      if (conn.unsent() > 0) events |= POLLOUT;
      im.fds.push_back(pollfd{conn.fd, events, 0});
    }
    // Nothing completes behind the loop's back, so it sleeps until traffic,
    // the wake pipe, or the drain deadline.
    int timeout_ms = -1;
    if (draining)
      timeout_ms = static_cast<int>(std::max<std::int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(drain_deadline -
                                                          Clock::now())
                 .count()));
    const int ready = ::poll(im.fds.data(), static_cast<nfds_t>(im.fds.size()),
                             timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // Unrecoverable poll failure.
    if (ready <= 0) continue;

    if (im.fds[wake_slot].revents & POLLIN) {
      char sink[64];
      while (::read(im.wake_read, sink, sizeof sink) > 0) {
      }
    }

    // Connections, in poll order; the ones accepted below join next wake.
    for (std::size_t i = 0; i < polled; ++i) {
      const short revents = im.fds[wake_slot + 1 + i].revents;
      if (revents == 0) continue;
      Impl::Connection& conn = im.connections[i];
      // POLLHUP with frames still queued: stop reading but keep flushing —
      // the peer may only have half-closed its write side.
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) conn.read_closed = true;
      if ((revents & POLLIN) && !conn.read_closed) read_chunk(conn);
      serve_connection(conn);
    }

    // Accept new connections (refused outright above the connection cap).
    if (im.listen_fd >= 0 && (im.fds[0].revents & POLLIN)) {
      for (;;) {
        const int conn_fd = ::accept(im.listen_fd, nullptr, nullptr);
        if (conn_fd < 0) break;
        if (im.connections.size() >=
            static_cast<std::size_t>(config_.max_connections)) {
          im.close_fd(conn_fd, im.connections_refused);
          continue;
        }
        set_nonblocking(conn_fd);
        const int one = 1;
        ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        im.connections_accepted.fetch_add(1, std::memory_order_relaxed);
        Impl::Connection& conn = im.connections.emplace_back();
        conn.fd = conn_fd;
      }
    }
  }

  // Teardown: whatever survived the drain deadline closes now.
  for (const Impl::Connection& conn : im.connections)
    im.close_fd(conn.fd, im.connections_closed);
  im.connections.clear();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
}

}  // namespace irp
