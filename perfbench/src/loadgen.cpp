// OracleWire load generator for the serving workloads, speaking the public
// codec in serve/wire.hpp to a `run_study_cli serve --listen` child.
//
//   bench_loadgen prepare --mix hot|multi --seed N --dir DIR
//                         --image NAME=PATH ... [--trace FILE]
//       Loads each snapshot image, draws the mix's key pool for each study
//       and writes it to DIR/keys_NAME.txt in the `run_study_cli query`
//       format, so run.py can compute the expected answers with the shipped
//       binary. With --trace, also times snapshot loading, catalog loading,
//       OracleService::answer and the wire codec per query type in-process.
//
//   bench_loadgen run --port P --server-pid PID --mix hot|multi --seed N
//                     --dir DIR --study NAME ... --seconds S --out FILE
//       Warms the server up; runs kRounds interleaved rounds of the
//       fixed-rate open loops and the closed loop, then the rate ladder, all
//       sized from S (see kFixedRates). Verifies every reply against
//       DIR/expected_NAME.txt after each window and writes the per-phase
//       results to FILE as JSON.
//
//   bench_loadgen probe --port P
//       One synchronous request; exits 0 once it is answered.
//
//   bench_loadgen stall-selftest
//       Runs the open-loop generator against an in-process stub server that
//       stalls once, and checks that the stall shows in later requests'
//       latencies while the generator keeps its schedule.
//
// Open loop: request i of a phase is due at t0 + i / rate. Frames are encoded
// before the window; one thread sends every due frame over two connections
// and polls for replies without sleeping. Latency is reply time minus due
// time, so a stall anywhere (server, socket or generator) is charged to
// every request that waited behind it; generator lag (send time minus due
// time) is reported separately. Replies are decoded, rendered with to_text() and
// compared with the expected answers only after the window closes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle_client.hpp"
#include "serve/oracle_service.hpp"
#include "serve/oracle_snapshot.hpp"
#include "serve/study_catalog.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

using namespace irp;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "bench_loadgen: %s\n", message.c_str());
  std::exit(2);
}

// ------------------------------------------------------ the serving plan

/// The latency limit: a rate step meets it when its p99 latency is within
/// kSloUs and its generator lag p99 within kLagBoundMs.
constexpr double kSloUs = 2000;
constexpr double kLagBoundMs = 1;

/// Interleaved rounds of the measured phases.
constexpr int kRounds = 7;

/// A measured phase: its share of the run length S, with a floor.
struct PhaseSize {
  const char* name;
  double rate;  ///< Requests per second; 0 for the closed loop.
  double share;
  double min_seconds;
};
constexpr PhaseSize kFixedRates[] = {{"low", 500, 0.3, 2.0},
                                     {"mid", 20000, 0.1, 0.5},
                                     {"high", 80000, 0.1, 0.5}};
constexpr PhaseSize kClosed = {"closed", 0, 0.1, 0.5};

/// The rate ladder: from kLadderStart, steps of kLadderStepShare * S (at
/// least kLadderMinStepSeconds), growing by kLadderFactor, at most
/// kLadderSteps of them.
constexpr double kLadderStart = 100000;
constexpr double kLadderFactor = 1.15;
constexpr double kLadderStepShare = 0.025;
constexpr double kLadderMinStepSeconds = 0.25;
constexpr int kLadderSteps = 14;

double phase_seconds(const PhaseSize& p, double run_seconds) {
  return std::max(p.min_seconds, p.share * run_seconds);
}

// ---------------------------------------------------------------- queries

/// Renders a request in the `run_study_cli query` line format.
std::string query_text(const OracleRequest& request) {
  std::ostringstream out;
  if (const auto* c = std::get_if<ClassifyRequest>(&request)) {
    const RouteDecision& d = c->decision;
    out << "classify " << d.decider << ' ' << d.next_hop << ' ' << d.dest_asn
        << ' ' << d.dst_prefix.to_string() << ' ' << d.remaining_len;
    if (c->scenario.use_hybrid) out << " hybrid";
    if (c->scenario.use_siblings) out << " siblings";
    if (c->scenario.psp == PspMode::kCriteria1) out << " psp1";
    if (c->scenario.psp == PspMode::kCriteria2) out << " psp2";
  } else if (const auto* r = std::get_if<AlternateRoutesRequest>(&request)) {
    out << "routes " << r->asn << ' ' << r->prefix.to_string();
  } else if (const auto* p = std::get_if<PspVisibilityRequest>(&request)) {
    out << "psp " << p->origin << ' ' << p->neighbor << ' '
        << p->prefix.to_string();
  } else {
    const auto& l = std::get<RelationshipLookupRequest>(request);
    out << "rel " << l.a << ' ' << l.b;
  }
  return out.str();
}

/// Parses a line written by query_text().
OracleRequest parse_query(const std::string& line) {
  std::istringstream in(line);
  std::string verb, prefix_text;
  auto asn = [&]() {
    unsigned long long v = 0;
    if (!(in >> v)) die("bad query line: " + line);
    return static_cast<Asn>(v);
  };
  auto prefix = [&]() {
    if (!(in >> prefix_text)) die("bad query line: " + line);
    const auto p = Ipv4Prefix::parse(prefix_text);
    if (!p) die("bad prefix in query line: " + line);
    return *p;
  };
  in >> verb;
  if (verb == "classify") {
    ClassifyRequest req;
    req.decision.decider = asn();
    req.decision.next_hop = asn();
    req.decision.dest_asn = asn();
    req.decision.dst_prefix = prefix();
    req.decision.remaining_len = asn();
    std::string flag;
    while (in >> flag) {
      if (flag == "hybrid") req.scenario.use_hybrid = true;
      else if (flag == "siblings") req.scenario.use_siblings = true;
      else if (flag == "psp1") req.scenario.psp = PspMode::kCriteria1;
      else if (flag == "psp2") req.scenario.psp = PspMode::kCriteria2;
      else die("bad classify flag in: " + line);
    }
    return req;
  }
  if (verb == "routes") {
    AlternateRoutesRequest req;
    req.asn = asn();
    req.prefix = prefix();
    return req;
  }
  if (verb == "psp") {
    PspVisibilityRequest req;
    req.origin = asn();
    req.neighbor = asn();
    req.prefix = prefix();
    return req;
  }
  if (verb == "rel") {
    RelationshipLookupRequest req;
    req.a = asn();
    req.b = asn();
    return req;
  }
  die("bad query verb in: " + line);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ------------------------------------------------------------------ mixes

/// A workload mix: which query types the traffic carries with what weight,
/// how many distinct keys of each type a study's pool holds, and how the
/// traffic is split across studies.
struct Mix {
  std::vector<std::pair<QueryType, int>> type_weights;
  std::vector<std::pair<QueryType, std::size_t>> pool_sizes;
  std::vector<int> study_weights;  ///< Per study, in --study order.
  bool versioned = false;          ///< Version-2 frames naming the study.
};

/// The five single-feature scenarios of the Figure 1 ladder.
std::vector<ScenarioOptions> five_scenarios() {
  std::vector<ScenarioOptions> out;
  for (const NamedScenario& s : figure1_scenarios())
    if (out.size() < 5) out.push_back(s.options);
  return out;
}

Mix make_mix(const std::string& name) {
  Mix mix;
  if (name == "hot") {
    // Cache-hot: 2048 classify decisions under one scenario plus 2048
    // relationship pairs, well inside the 8192-entry cache budget.
    mix.type_weights = {{QueryType::kClassify, 50},
                        {QueryType::kRelationshipLookup, 50}};
    mix.pool_sizes = {{QueryType::kClassify, 2048},
                      {QueryType::kRelationshipLookup, 2048}};
    mix.study_weights = {1};
  } else if (name == "multi") {
    // Bigger responses (routes, psp) plus classify over 4096 decisions under
    // five scenarios per study: 3 x 20480 classify keys against an
    // 8192-entry shared budget.
    mix.type_weights = {{QueryType::kAlternateRoutes, 40},
                        {QueryType::kPspVisibility, 30},
                        {QueryType::kClassify, 30}};
    mix.pool_sizes = {{QueryType::kAlternateRoutes, 8192},
                      {QueryType::kPspVisibility, 8192},
                      {QueryType::kClassify, 4096 * 5}};
    mix.study_weights = {70, 20, 10};
    mix.versioned = true;
  } else {
    die("unknown mix " + name);
  }
  return mix;
}

/// Draws `mix`'s key pool for one study from its snapshot, grouped by type
/// in pool_sizes order.
std::vector<OracleRequest> draw_pool(const OracleSnapshot& snap,
                                     const Mix& mix, Rng& rng) {
  auto random_entry = [&]() -> std::pair<const OracleSnapshot::PrefixRoutes*,
                                         const OracleSnapshot::RouteEntry*> {
    for (;;) {
      const auto& pr = snap.routes[rng.index(snap.routes.size())];
      if (pr.entries.empty()) continue;
      const auto& e = pr.entries[rng.index(pr.entries.size())];
      if (e.self_originated || e.next_hop == 0) continue;
      return {&pr, &e};
    }
  };
  std::vector<OracleRequest> pool;
  for (const auto& [type, size] : mix.pool_sizes) {
    if (type == QueryType::kClassify) {
      const bool all_scenarios = mix.versioned;
      const std::vector<ScenarioOptions> scenarios = five_scenarios();
      const std::size_t decisions = all_scenarios ? size / 5 : size;
      for (std::size_t i = 0; i < decisions; ++i) {
        const auto [pr, e] = random_entry();
        ClassifyRequest req;
        req.decision.decider = e->asn;
        req.decision.next_hop = e->next_hop;
        req.decision.dest_asn = pr->origin;
        req.decision.dst_prefix = pr->prefix;
        req.decision.remaining_len = snap.paths.num_hops(e->selected);
        if (!all_scenarios) {
          pool.push_back(req);
          continue;
        }
        for (const ScenarioOptions& scenario : scenarios) {
          req.scenario = scenario;
          pool.push_back(req);
        }
      }
    } else if (type == QueryType::kAlternateRoutes) {
      for (std::size_t i = 0; i < size; ++i) {
        const auto [pr, e] = random_entry();
        pool.push_back(AlternateRoutesRequest{e->asn, pr->prefix});
      }
    } else if (type == QueryType::kPspVisibility) {
      for (std::size_t i = 0; i < size;) {
        const auto& block =
            snap.observations[rng.index(snap.observations.size())];
        if (block.pairs.empty()) continue;
        const auto& [origin, neighbor] =
            block.pairs[rng.index(block.pairs.size())];
        pool.push_back(PspVisibilityRequest{origin, neighbor, block.prefix});
        ++i;
      }
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const auto& rel =
            snap.relationships[rng.index(snap.relationships.size())];
        RelationshipLookupRequest req{rel.a, rel.b};
        if (rng.index(2) == 1) std::swap(req.a, req.b);
        pool.push_back(req);
      }
    }
  }
  return pool;
}

// ------------------------------------------------------------- statistics

/// Exact nearest-rank order statistic of sorted samples; q in (0, 1].
double order_stat(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Appends `"key": {...}` describing the samples: count, p50, p99, max and
/// the highest percentile with at least ten samples beyond it.
void json_samples(std::ostringstream& out, const char* key,
                  std::vector<double> samples, double scale) {
  std::sort(samples.begin(), samples.end());
  for (double& v : samples) v *= scale;
  const std::size_t n = samples.size();
  const double top_q = n > 10 ? double(n - 10) / double(n) : 0.0;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"%s\": {\"n\": %zu, \"p50\": %.6f, \"p99\": %.6f, "
                "\"max\": %.6f, \"top_q\": %.6f, \"top\": %.6f}",
                key, n, order_stat(samples, 0.5), order_stat(samples, 0.99),
                n ? samples.back() : 0.0, top_q,
                top_q > 0 ? order_stat(samples, top_q) : 0.0);
  out << buf;
}

// --------------------------------------------------------------- sockets

/// Peak resident set of process `pid` so far (VmHWM), in MiB; 0 when `pid`
/// is 0 or unreadable.
double process_peak_rss_mb(long pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    die("connect to port " + std::to_string(port) + " failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// ------------------------------------------------------------- open loop

/// One planned request: which study and pool key it asks, and its frame.
struct Planned {
  std::uint32_t study = 0;
  std::uint32_t key = 0;
  std::string frame;
};

/// Marks a per-request sample that does not exist (never sent or never
/// answered).
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

/// Per-request samples of one open-loop window, indexed like the plan.
struct OpenLoopResult {
  double rate = 0;
  std::size_t answered = 0;
  bool transport_error = false;
  std::vector<double> latency_ns;  ///< Reply time minus due time.
  std::vector<double> rtt_ns;      ///< Reply time minus send time.
  std::vector<double> lag_ns;      ///< Send time minus due time.
};

/// Sends `plan` open-loop at `rate` over `fds` (request ids id_base + i) and
/// collects the replies; `replies[i]` is empty when request i got none.
OpenLoopResult open_loop(const std::vector<int>& fds,
                         const std::vector<Planned>& plan,
                         std::uint64_t id_base, double rate,
                         std::vector<WireFrame>& replies,
                         std::vector<bool>& got) {
  OpenLoopResult res;
  const std::size_t n = plan.size();
  res.rate = rate;
  replies.assign(n, WireFrame{});
  got.assign(n, false);
  std::vector<std::int64_t> sent_at(n, 0), recv_at(n, 0);

  const std::size_t nconn = fds.size();
  std::vector<std::string> out(nconn), in(nconn);
  std::vector<std::size_t> out_off(nconn, 0);
  std::vector<bool> dead(nconn, false);
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 2'000'000;
  auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(double(i) * period_ns);
  };
  // Replies may trail the last due time by up to this much before the
  // missing ones count as unanswered.
  const std::int64_t deadline = due(n) + 500'000'000;
  std::size_t next = 0, answered = 0;

  std::vector<pollfd> pfds(nconn);
  char chunk[4096];
  for (;;) {
    const std::int64_t now = now_ns();
    if ((next == n && answered == n) || now > deadline) break;
    while (next < n && due(next) <= now) {
      const std::size_t c = next % nconn;
      if (!dead[c]) out[c] += plan[next].frame;
      sent_at[next] = now;
      ++next;
    }
    bool want_out = false;
    for (std::size_t c = 0; c < nconn; ++c) {
      if (dead[c] || out_off[c] == out[c].size()) continue;
      const ssize_t k =
          ::send(fds[c], out[c].data() + out_off[c], out[c].size() - out_off[c],
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (k > 0) {
        out_off[c] += static_cast<std::size_t>(k);
      } else if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        dead[c] = true;
        res.transport_error = true;
      }
      if (out_off[c] == out[c].size()) {
        out[c].clear();
        out_off[c] = 0;
      } else {
        want_out = true;
      }
    }
    for (std::size_t c = 0; c < nconn; ++c) {
      pfds[c].fd = dead[c] ? -1 : fds[c];
      pfds[c].events = POLLIN | (want_out ? POLLOUT : 0);
      pfds[c].revents = 0;
    }
    // Zero timeout: the generator spins rather than sleeps, so a slow
    // wake-up of its own thread never delays a send or a reply timestamp.
    timespec ts{0, 0};
    const int ready = ::ppoll(pfds.data(), nconn, &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < nconn; ++c) {
      if (dead[c] || !(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      for (;;) {
        const ssize_t k = ::recv(fds[c], chunk, sizeof chunk, MSG_DONTWAIT);
        if (k == 0 || (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          dead[c] = true;
          res.transport_error = true;
          break;
        }
        if (k < 0) break;
        const std::int64_t t = now_ns();
        in[c].append(chunk, static_cast<std::size_t>(k));
        try {
          while (auto frame = try_decode_frame(in[c])) {
            const std::uint64_t idx = frame->request_id - id_base;
            if (frame->request_id < id_base || idx >= n || got[idx]) {
              res.transport_error = true;  // Unsolicited or duplicate reply.
              continue;
            }
            got[idx] = true;
            recv_at[idx] = t;
            replies[idx] = std::move(*frame);
            ++answered;
          }
        } catch (const WireDecodeError&) {
          dead[c] = true;  // A poisoned stream cannot be resynchronized.
          res.transport_error = true;
          break;
        }
        if (static_cast<std::size_t>(k) < sizeof chunk) break;
      }
    }
  }
  res.answered = answered;
  res.latency_ns.assign(n, kNone);
  res.rtt_ns.assign(n, kNone);
  res.lag_ns.assign(n, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < next) res.lag_ns[i] = double(sent_at[i] - due(i));
    if (!got[i]) continue;
    res.latency_ns[i] = double(recv_at[i] - due(i));
    res.rtt_ns[i] = double(recv_at[i] - sent_at[i]);
  }
  return res;
}

// -------------------------------------------------------------- the plan

/// Outcome of checking a window's replies.
struct Verdict {
  std::size_t unanswered = 0;
  std::size_t error_frames = 0;  ///< kError replies (kOverloaded and others).
  std::size_t wrong = 0;         ///< Wrong or undecodable answers.
  std::size_t failed() const { return unanswered + error_frames + wrong; }
  void add(const Verdict& o) {
    unanswered += o.unanswered;
    error_frames += o.error_frames;
    wrong += o.wrong;
  }
};

struct Study {
  std::string name;
  std::vector<OracleRequest> pool;
  std::vector<std::pair<QueryType, std::pair<std::size_t, std::size_t>>>
      ranges;  ///< Pool index range [begin, end) per type.
  std::vector<std::string> expected;
};

struct Workload {
  Mix mix;
  std::vector<Study> studies;
  Rng rng;
  std::uint64_t next_id = 1;

  /// Draws one request of the mix.
  Planned draw() {
    Planned p;
    int total = 0;
    for (int w : mix.study_weights) total += w;
    int pick = static_cast<int>(rng.index(static_cast<std::size_t>(total)));
    while (pick >= mix.study_weights[p.study]) pick -= mix.study_weights[p.study++];
    const Study& study = studies[p.study];
    total = 0;
    for (const auto& tw : mix.type_weights) total += tw.second;
    pick = static_cast<int>(rng.index(static_cast<std::size_t>(total)));
    std::size_t t = 0;
    while (pick >= mix.type_weights[t].second) pick -= mix.type_weights[t++].second;
    for (const auto& [type, range] : study.ranges)
      if (type == mix.type_weights[t].first)
        p.key = static_cast<std::uint32_t>(
            range.first + rng.index(range.second - range.first));
    return p;
  }

  /// Encodes a plan's frames with consecutive request ids; returns the base.
  std::uint64_t encode(std::vector<Planned>& plan) {
    const std::uint64_t base = next_id;
    for (Planned& p : plan) {
      const Study& study = studies[p.study];
      p.frame = encode_request(next_id++, study.pool[p.key],
                               mix.versioned ? study.name : std::string());
    }
    return base;
  }

  std::vector<Planned> draw_n(std::size_t n) {
    std::vector<Planned> plan(n);
    for (Planned& p : plan) p = draw();
    return plan;
  }

  /// Checks replies against the expected answers after a window.
  Verdict verify(const std::vector<Planned>& plan,
                 const std::vector<WireFrame>& replies,
                 const std::vector<bool>& got) const {
    Verdict v;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!got[i]) {
        ++v.unanswered;
        continue;
      }
      try {
        const auto reply = decode_reply(replies[i]);
        if (std::holds_alternative<WireError>(reply)) {
          ++v.error_frames;
          continue;
        }
        if (to_text(std::get<OracleResponse>(reply)) !=
            studies[plan[i].study].expected[plan[i].key])
          ++v.wrong;
      } catch (const CheckError&) {
        ++v.wrong;  // Undecodable reply bytes.
      }
    }
    return v;
  }
};

Workload load_workload(const std::string& mix_name, std::uint64_t seed,
                       const std::string& dir,
                       const std::vector<std::string>& names) {
  Workload w{make_mix(mix_name), {}, Rng(seed * 7919 + 17), 1};
  if (names.size() != w.mix.study_weights.size())
    die("mix " + mix_name + " needs " +
        std::to_string(w.mix.study_weights.size()) + " studies");
  for (const std::string& name : names) {
    Study study;
    study.name = name;
    const auto lines = read_lines(dir + "/keys_" + name + ".txt");
    for (const std::string& line : lines) study.pool.push_back(parse_query(line));
    study.expected = read_lines(dir + "/expected_" + name + ".txt");
    if (study.expected.size() != study.pool.size())
      die("expected_" + name + ".txt has " +
          std::to_string(study.expected.size()) + " answers for " +
          std::to_string(study.pool.size()) + " keys");
    for (const auto& [type, size] : w.mix.pool_sizes) {
      (void)size;
      std::size_t begin = study.pool.size(), end = 0;
      for (std::size_t i = 0; i < study.pool.size(); ++i)
        if (query_type(study.pool[i]) == type) {
          begin = std::min(begin, i);
          end = i + 1;
        }
      if (end == 0) die("no " + std::string(query_type_name(type)) + " keys");
      study.ranges.push_back({type, {begin, end}});
    }
    w.studies.push_back(std::move(study));
  }
  return w;
}

// ----------------------------------------------------------------- modes

struct Args {
  std::vector<std::pair<std::string, std::string>> kv;
  std::string get(const std::string& key, const std::string& def = "") const {
    for (const auto& [k, v] : kv)
      if (k == key) return v;
    return def;
  }
  std::vector<std::string> all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : kv)
      if (k == key) out.push_back(v);
    return out;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument " + key);
    args.kv.emplace_back(key.substr(2), argv[++i]);
  }
  return args;
}

/// Times `fn` over every item `reps` times; returns the median ns per call
/// over the repetitions.
template <typename Fn>
double median_ns_per_call(std::size_t items, int reps, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < items; ++i) fn(i);
    per_call.push_back(double(now_ns() - t0) / double(items));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

int cmd_prepare(const Args& args) {
  const std::string dir = args.get("dir"), trace_path = args.get("trace");
  const Mix mix = make_mix(args.get("mix"));
  const std::uint64_t seed = std::stoull(args.get("seed", "1"));
  Tracer tracer("prepare-seed" + std::to_string(seed));
  StudyCatalog catalog;
  std::vector<std::vector<OracleRequest>> pools;
  std::vector<std::string> names;
  double image_bytes = 0;
  for (const std::string& spec : args.all("image")) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) die("--image expects NAME=PATH");
    const std::string name = spec.substr(0, eq);
    const std::string bytes = read_file(spec.substr(eq + 1));
    image_bytes += double(bytes.size());
    std::optional<OracleSnapshot> snap;
    {
      ScopedSpan s(tracer, "serve.snapshot_load");
      snap.emplace(OracleSnapshot::from_bytes(bytes));
    }
    Rng rng(seed * 1000003 + pools.size());
    pools.push_back(draw_pool(*snap, mix, rng));
    std::ofstream keys(dir + "/keys_" + name + ".txt");
    for (const OracleRequest& r : pools.back()) keys << query_text(r) << '\n';
    if (!keys) die("cannot write keys for " + name);
    {
      ScopedSpan s(tracer, "serve.catalog_load");
      catalog.add_study(name, std::move(*snap));
    }
    names.push_back(name);
  }
  if (trace_path.empty()) return 0;
  tracer.counter("serve.snapshot_bytes", image_bytes);

  // In-process layer costs per query type over the first study's pool
  // re-drawn as the full four-type mix, so every type is measured on every
  // workload.
  OracleService service(&catalog, OracleService::Config{0, 1});
  Mix all = make_mix("multi");
  all.pool_sizes = {{QueryType::kClassify, 2048},
                    {QueryType::kAlternateRoutes, 2048},
                    {QueryType::kPspVisibility, 2048},
                    {QueryType::kRelationshipLookup, 2048}};
  all.versioned = false;
  Rng rng(seed * 31 + 5);
  const OracleSnapshot& first = catalog.studies().front()->snapshot;
  const std::vector<OracleRequest> sample = draw_pool(first, all, rng);
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const auto type = static_cast<QueryType>(t);
    std::vector<OracleRequest> reqs;
    for (const OracleRequest& r : sample)
      if (query_type(r) == type) reqs.push_back(r);
    const std::string tname(query_type_name(type));
    // Warm the classify cache first: the served mixes are measured warm.
    for (const OracleRequest& r : reqs) (void)service.answer(r, names.front());
    {
      ScopedSpan s(tracer, "serve.index.answer." + tname);
      tracer.counter("serve.index.answer_ns." + tname,
                     median_ns_per_call(reqs.size(), 5, [&](std::size_t i) {
                       (void)service.answer(reqs[i], names.front());
                     }));
    }
    std::vector<OracleResponse> resps;
    for (const OracleRequest& r : reqs)
      resps.push_back(service.answer(r, names.front()));
    double resp_bytes = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      resp_bytes += double(encode_response(i, resps[i]).size());
    tracer.counter("serve.wire.resp_bytes." + tname,
                   resp_bytes / double(reqs.size()));
    const std::string study = mix.versioned ? names.front() : std::string();
    ScopedSpan s(tracer, "serve.wire.codec." + tname);
    tracer.counter(
        "serve.wire.codec_ns." + tname,
        median_ns_per_call(reqs.size(), 5, [&](std::size_t i) {
          std::string wire = encode_request(i + 1, reqs[i], study);
          const OracleRequest back = decode_request(*try_decode_frame(wire));
          std::string reply = encode_response(i + 1, resps[i]);
          const auto answer = decode_reply(*try_decode_frame(reply));
          if (back.index() != reqs[i].index() || answer.index() != 0)
            die("codec round trip failed");
        }));
  }
  const StudyCatalog::CacheBudgetView budget = catalog.cache_budget();
  for (const auto& per : budget.per_study)
    tracer.counter("serve.catalog.quota_at_load." + per.name, double(per.quota));
  tracer.write_json(trace_path);
  return 0;
}

/// The samples of [begin, end) that exist.
std::vector<double> present(const std::vector<double>& v, std::size_t begin,
                            std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end; ++i)
    if (!std::isnan(v[i])) out.push_back(v[i]);
  std::sort(out.begin(), out.end());
  return out;
}

/// Exact order statistics of one window of a phase.
struct Window {
  std::size_t n = 0;
  double p50_us = 0, p99_us = 0, lag_p99_ms = 0, rtt_p50_us = 0, qps = 0;
};

Window window_of(const OpenLoopResult& r, std::size_t begin, std::size_t end) {
  Window w;
  w.n = end - begin;
  const auto lat = present(r.latency_ns, begin, end);
  const auto rtt = present(r.rtt_ns, begin, end);
  const auto lag = present(r.lag_ns, begin, end);
  w.p50_us = order_stat(lat, 0.5) * 1e-3;
  w.p99_us = order_stat(lat, 0.99) * 1e-3;
  w.rtt_p50_us = order_stat(rtt, 0.5) * 1e-3;
  w.lag_p99_ms = order_stat(lag, 0.99) * 1e-6;
  w.qps = r.rate;
  return w;
}

/// One named phase: one or more windows at one rate. Its summary numbers
/// are medians over the windows of each window's exact order statistics, so
/// a host hiccup in one window does not decide the phase; the pooled exact
/// statistics over every sample are recorded next to them.
struct Phase {
  std::string kind, name;
  double rate = 0;
  double seconds = 0;
  std::size_t n = 0, answered = 0;
  bool transport_error = false;
  Verdict verdict;
  std::vector<Window> windows;
  std::vector<double> lat_ns, rtt_ns, lag_ns;  ///< Pooled samples.

  void add(const OpenLoopResult& r, const Verdict& v, std::size_t windows_in) {
    const std::size_t size = r.latency_ns.size();
    n += size;
    answered += r.answered;
    if (r.rate > 0) seconds += double(size) / r.rate;
    transport_error = transport_error || r.transport_error;
    verdict.add(v);
    for (std::size_t k = 0; k < windows_in; ++k)
      windows.push_back(
          window_of(r, size * k / windows_in, size * (k + 1) / windows_in));
    for (const auto* src : {&r.latency_ns, &r.rtt_ns, &r.lag_ns}) {
      auto& dst = src == &r.latency_ns ? lat_ns
                  : src == &r.rtt_ns   ? rtt_ns
                                       : lag_ns;
      for (double x : *src)
        if (!std::isnan(x)) dst.push_back(x);
    }
  }

  Window median() const {
    Window m;
    auto med = [&](double Window::*field) {
      std::vector<double> v;
      for (const Window& w : windows) v.push_back(w.*field);
      std::sort(v.begin(), v.end());
      return v.empty() ? 0.0 : order_stat(v, 0.5);
    };
    m.n = n;
    m.p50_us = med(&Window::p50_us);
    m.p99_us = med(&Window::p99_us);
    m.lag_p99_ms = med(&Window::lag_p99_ms);
    m.rtt_p50_us = med(&Window::rtt_p50_us);
    m.qps = med(&Window::qps);
    return m;
  }

  bool clean() const { return verdict.failed() == 0 && !transport_error; }

  /// The latency limit at this rate: everything answered right, and the
  /// window-median p99 latency and generator lag within their bounds.
  bool meets() const {
    const Window m = median();
    return clean() && m.p99_us <= kSloUs && m.lag_p99_ms <= kLagBoundMs;
  }
};

void json_window(std::ostringstream& out, const Window& w) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\": %zu, \"p50_us\": %.3f, \"p99_us\": %.3f, "
                "\"lag_p99_ms\": %.4f, \"rtt_p50_us\": %.3f, \"qps\": %.3f}",
                w.n, w.p50_us, w.p99_us, w.lag_p99_ms, w.rtt_p50_us, w.qps);
  out << buf;
}

void json_phase(std::ostringstream& out, const Phase& p, bool slo_ok) {
  out << "  {\"kind\": \"" << p.kind << "\", \"name\": \"" << p.name
      << "\", \"rate\": " << p.rate << ", \"seconds\": " << p.seconds
      << ", \"n\": " << p.n << ", \"answered\": " << p.answered
      << ", \"unanswered\": " << p.verdict.unanswered
      << ", \"error_frames\": " << p.verdict.error_frames
      << ", \"wrong\": " << p.verdict.wrong
      << ", \"transport_error\": " << (p.transport_error ? "true" : "false")
      << ", \"slo_ok\": " << (slo_ok ? "true" : "false")
      << ", \"window_median\": ";
  json_window(out, p.median());
  out << ", \"windows\": [";
  for (std::size_t i = 0; i < p.windows.size(); ++i) {
    if (i) out << ", ";
    json_window(out, p.windows[i]);
  }
  out << "], \"pooled\": {";
  json_samples(out, "latency_us", p.lat_ns, 1e-3);
  out << ", ";
  json_samples(out, "rtt_us", p.rtt_ns, 1e-3);
  out << ", ";
  json_samples(out, "lag_ms", p.lag_ns, 1e-6);
  out << "}}";
}

int cmd_run(const Args& args) {
  const auto port = static_cast<std::uint16_t>(std::stoul(args.get("port")));
  Workload w = load_workload(args.get("mix"), std::stoull(args.get("seed")),
                             args.get("dir"), args.all("study"));
  const double run_seconds = std::stod(args.get("seconds"));
  const long server_pid = std::stol(args.get("server-pid", "0"));
  constexpr std::size_t kWindowsPerStep = 5;
  std::vector<int> fds = {connect_loopback(port), connect_loopback(port)};
  std::vector<WireFrame> replies;
  std::vector<bool> got;
  std::vector<Phase> phases;  // In execution order; fixed ones by name.

  // Leaves the server idle after a window that overloaded it: fresh
  // connections (the server drops what the old ones still had queued), then
  // single requests until three in a row come back within 5 ms.
  auto quiesce = [&]() {
    for (int& fd : fds) ::close(fd);
    fds = {connect_loopback(port), connect_loopback(port)};
    OracleClient::Config cc;
    cc.port = port;
    OracleClient probe(cc);
    const std::int64_t give_up = now_ns() + 10'000'000'000;
    for (int fast = 0; fast < 3 && now_ns() < give_up;) {
      const std::int64_t t0 = now_ns();
      try {
        (void)probe.call(RelationshipLookupRequest{1, 2});
        fast = now_ns() - t0 < 5'000'000 ? fast + 1 : 0;
      } catch (const CheckError&) {
        fast = 0;  // Still overloaded or still dropping old connections.
      }
    }
  };

  // Runs one open-loop window of `plan` at `rate` into `phase`.
  auto run_window = [&](Phase& phase, std::vector<Planned> plan, double rate,
                        std::size_t windows_in) {
    const std::uint64_t base = w.encode(plan);
    const OpenLoopResult r = open_loop(fds, plan, base, rate, replies, got);
    const Verdict v = w.verify(plan, replies, got);
    phase.add(r, v, windows_in);
    if (v.failed() != 0 || r.transport_error) quiesce();
    usleep(50'000);
  };
  auto new_phase = [&](const std::string& kind, const std::string& name,
                       double rate) -> Phase& {
    phases.push_back(Phase{});
    phases.back().kind = kind;
    phases.back().name = name;
    phases.back().rate = rate;
    return phases.back();
  };

  // Warm-up, verified but not a metric: every key once (hot; multi's key
  // space exceeds the cache by design), then a ramp up to the high rate so
  // the caches, the server's buffers and the generator's buffers have grown
  // before timing. A cold server may shed part of that ramp; such sheds
  // are recorded as warm-up overload, while wrong answers still fail.
  {
    std::vector<Planned> plan;
    if (!w.mix.versioned)
      for (std::uint32_t s = 0; s < w.studies.size(); ++s)
        for (std::uint32_t k = 0; k < w.studies[s].pool.size(); ++k)
          plan.push_back(Planned{s, k, {}});
    if (!plan.empty())
      run_window(new_phase("warmup", "warmup-keys", 20000), std::move(plan),
                 20000, 1);
    for (const double rate : {20000.0, 40000.0, 80000.0})
      run_window(new_phase("warmup", "warmup-" + std::to_string(int(rate)), rate),
                 w.draw_n(static_cast<std::size_t>(rate / 4)), rate, 1);
  }

  // Closed loop: one synchronous client (one connection per study, one
  // request in flight) for `secs`; the window's throughput is completions
  // per second.
  std::vector<std::unique_ptr<OracleClient>> clients;
  for (const Study& s : w.studies) {
    OracleClient::Config cc;
    cc.port = port;
    cc.study = w.mix.versioned ? s.name : std::string();
    clients.push_back(std::make_unique<OracleClient>(cc));
  }
  auto closed_window = [&](Phase& phase, double secs) {
    std::vector<Planned> plan;
    std::vector<std::string> texts;
    OpenLoopResult r;
    const std::int64_t start = now_ns();
    const auto span_ns = static_cast<std::int64_t>(secs * 1e9);
    while (now_ns() - start < span_ns) {
      const Planned p = w.draw();
      const std::int64_t t0 = now_ns();
      try {
        texts.push_back(
            to_text(clients[p.study]->call(w.studies[p.study].pool[p.key])));
        r.latency_ns.push_back(double(now_ns() - t0));
      } catch (const CheckError&) {
        texts.emplace_back();
        r.latency_ns.push_back(kNone);
      }
      plan.push_back(p);
    }
    const double elapsed_s = double(now_ns() - start) * 1e-9;
    r.rtt_ns = r.latency_ns;
    r.lag_ns.assign(plan.size(), 0.0);
    Verdict v;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (std::isnan(r.latency_ns[i])) {
        ++v.error_frames;  // The client gave up: transport or error frame.
        continue;
      }
      ++r.answered;
      if (texts[i] != w.studies[plan[i].study].expected[plan[i].key]) ++v.wrong;
    }
    r.rate = double(r.answered) / elapsed_s;
    phase.add(r, v, 1);
    phase.windows.back().qps = r.rate;
  };

  // The measured phases, interleaved: kRounds rounds, each running every
  // fixed rate and the closed loop for 1/kRounds of their time, so a noisy
  // stretch of the host hits one window of each rather than all of one.
  // Each phase reports medians over its windows.
  const std::size_t first_measured = phases.size();
  for (const PhaseSize& f : kFixedRates) new_phase("fixed", f.name, f.rate);
  new_phase("closed", kClosed.name, 0);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < std::size(kFixedRates); ++i) {
      const PhaseSize& f = kFixedRates[i];
      const double secs = phase_seconds(f, run_seconds) / kRounds;
      run_window(phases[first_measured + i],
                 w.draw_n(static_cast<std::size_t>(f.rate * secs)), f.rate, 1);
    }
    closed_window(phases.back(), phase_seconds(kClosed, run_seconds) / kRounds);
  }
  phases.back().rate = phases.back().median().qps;
  // The server's peak RSS through the measured rounds, before the ladder
  // overloads it and its output buffers grow with the backlog.
  const double server_rss_mb = process_peak_rss_mb(server_pid);

  // Rate ladder: steps grow by kLadderFactor until one misses the limit (or
  // shrink by it until one meets it, when kLadderStart already misses). A
  // clean miss (every request answered, only p99 or lag over) is retried
  // once at the same rate. One bisection step between the highest passing
  // rate and the lowest missed one then refines the answer.
  {
    const double secs =
        std::max(kLadderMinStepSeconds, kLadderStepShare * run_seconds);
    double rate = kLadderStart;
    double last_ok = 0, missed = 0;
    bool retried = false;
    int step = 0;
    auto ladder_step = [&](double at) -> const Phase& {
      Phase& p = new_phase("ladder", "ladder" + std::to_string(step++), at);
      run_window(p, w.draw_n(static_cast<std::size_t>(at * secs)), at,
                 kWindowsPerStep);
      return phases.back();
    };
    while (step < kLadderSteps) {
      const Phase& p = ladder_step(rate);
      if (p.meets()) {
        last_ok = rate;
        if (missed > 0) break;
        rate *= kLadderFactor;
        retried = false;
      } else if (p.clean() && !retried) {
        retried = true;
      } else {
        missed = rate;
        if (last_ok > 0) break;
        rate /= kLadderFactor;
        retried = false;
      }
    }
    if (last_ok > 0 && missed > 0) ladder_step(std::sqrt(last_ok * missed));
  }

  for (int fd : fds) ::close(fd);

  // A ladder step above capacity is expected to shed or leave requests
  // unanswered, and so may a cold server during warm-up: those count as
  // overload, not as failures. Wrong answers count everywhere.
  std::size_t attempted = 0, failed = 0, wrong = 0, overload = 0;
  std::ostringstream json;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    attempted += p.n;
    wrong += p.verdict.wrong;
    if (p.kind == "ladder" || p.kind == "warmup") {
      failed += p.verdict.wrong;
      overload += p.verdict.unanswered + p.verdict.error_frames;
    } else {
      failed += p.verdict.failed();
    }
    json << (i ? ",\n" : "\n");
    json_phase(json, p, p.meets());
  }
  std::ofstream out(args.get("out"));
  out << "{\"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"wrong\": " << wrong
      << ", \"ladder_overload\": " << overload
      << ", \"server_peak_rss_mb_before_ladder\": " << server_rss_mb
      << ", \"phases\": ["
      << json.str() << "\n]}\n";
  return out ? 0 : 1;
}

int cmd_probe(const Args& args) {
  OracleClient::Config cc;
  cc.port = static_cast<std::uint16_t>(std::stoul(args.get("port")));
  OracleClient client(cc);
  const OracleResponse resp = client.call(RelationshipLookupRequest{1, 2});
  std::printf("%s\n", to_text(resp).c_str());
  return 0;
}

/// A loopback server that answers every request frame with an empty
/// relationship response, except that it sleeps `stall_ms` once before
/// answering request number `stall_at`.
class StallingStub {
 public:
  StallingStub(int stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 8) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      die("stub server: bind/listen failed");
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StallingStub() {
    stop_ = true;
    thread_.join();
    ::close(listen_fd_);
  }
  StallingStub(const StallingStub&) = delete;
  StallingStub& operator=(const StallingStub&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    std::vector<int> conns;
    std::vector<std::string> bufs;
    int seen = 0;
    char chunk[4096];
    while (!stop_) {
      std::vector<pollfd> pfds{{listen_fd_, POLLIN, 0}};
      for (int fd : conns) pfds.push_back({fd, POLLIN, 0});
      if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
      const std::size_t polled = conns.size();  // pfds[1..polled] only.
      if (pfds[0].revents & POLLIN) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          conns.push_back(fd);
          bufs.emplace_back();
        }
      }
      for (std::size_t c = 0; c < polled; ++c) {
        if (!(pfds[c + 1].revents & POLLIN)) continue;
        const ssize_t k = ::recv(conns[c], chunk, sizeof chunk, 0);
        if (k <= 0) continue;
        bufs[c].append(chunk, static_cast<std::size_t>(k));
        std::string out;
        while (auto frame = try_decode_frame(bufs[c])) {
          if (++seen == stall_at_)
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          out += encode_response(frame->request_id,
                                 RelationshipLookupResponse{});
        }
        if (!out.empty())
          (void)::send(conns[c], out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    for (int fd : conns) ::close(fd);
  }

  int stall_at_, stall_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: started after every member it reads.
};

int cmd_stall_selftest() {
  constexpr double kRate = 2000;
  constexpr int kRequests = 1200, kStallAt = 400, kStallMs = 50;
  StallingStub stub(kStallAt, kStallMs);
  const std::vector<int> fds = {connect_loopback(stub.port()),
                                connect_loopback(stub.port())};
  std::vector<Planned> plan(kRequests);
  for (std::size_t i = 0; i < plan.size(); ++i)
    plan[i].frame = encode_request(i + 1, RelationshipLookupRequest{1, 2});
  std::vector<WireFrame> replies;
  std::vector<bool> got;
  const OpenLoopResult r = open_loop(fds, plan, 1, kRate, replies, got);
  for (int fd : fds) ::close(fd);

  const std::vector<double> lat = present(r.latency_ns, 0, plan.size());
  const std::vector<double> lag = present(r.lag_ns, 0, plan.size());
  // Every request due during the stall waits for its end, so about
  // rate * stall / 2 of them see at least half the stall.
  const double half_stall_ns = kStallMs * 1e6 / 2;
  const auto delayed = static_cast<std::size_t>(
      lat.end() - std::lower_bound(lat.begin(), lat.end(), half_stall_ns));
  const std::size_t want_delayed =
      static_cast<std::size_t>(kRate * kStallMs * 1e-3 / 2 * 0.8);
  const bool stall_seen = r.answered == plan.size() && !lat.empty() &&
                          lat.back() >= 0.9 * kStallMs * 1e6 &&
                          delayed >= want_delayed;
  // The generator must keep its schedule through the stall: most requests
  // leave on time (the median, since a loaded host can delay a few sends).
  const bool on_schedule = order_stat(lag, 0.5) < 1e6;
  std::printf("{\"stall_ms\": %d, \"answered\": %zu, \"max_latency_ms\": %.3f, "
              "\"delayed\": %zu, \"want_delayed\": %zu, \"lag_p50_ms\": %.3f, "
              "\"pass\": %s}\n",
              kStallMs, r.answered, lat.empty() ? 0.0 : lat.back() * 1e-6,
              delayed, want_delayed, order_stat(lag, 0.5) * 1e-6,
              stall_seen && on_schedule ? "true" : "false");
  return stall_seen && on_schedule ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: bench_loadgen prepare|run|probe|stall-selftest ...");
  const std::string mode = argv[1];
  try {
    if (mode == "prepare") return cmd_prepare(parse_args(argc, argv, 2));
    if (mode == "run") return cmd_run(parse_args(argc, argv, 2));
    if (mode == "probe") return cmd_probe(parse_args(argc, argv, 2));
    if (mode == "stall-selftest") return cmd_stall_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_loadgen %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  die("unknown mode " + mode);
}
