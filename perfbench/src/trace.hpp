// In-memory span and counter recorder for the benchmark helpers.
//
// A span is (id, name, parent, start, end) on the steady clock; spans of one
// process share a run id. Nothing is written until write_json(), which the
// helpers call once at exit, so recording costs two clock reads and a vector
// push. Per-layer self time (a span minus its children) is computed by
// run.py from the written spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic() reads, so run.py can compare instants across processes).
double now_s();

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;  ///< -1 for a root span.
    std::string name;
    double start_s = 0;
    double end_s = 0;
    double rss_mb = 0;  ///< Peak RSS when the span ended.
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span as a child of the innermost open span.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);
  /// Records (or overwrites) a named counter.
  void counter(const std::string& name, double value);

  void write_json(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
