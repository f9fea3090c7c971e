#include "trace.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() { return double(now_ns()) * 1e-9; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

int Tracer::begin(std::string name) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = std::move(name);
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("Tracer::end: span is not the innermost open one");
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = now_s();
  span.rss_mb = peak_rss_mb();
}

void Tracer::counter(const std::string& name, double value) {
  for (auto& [key, v] : counters_)
    if (key == name) {
      v = value;
      return;
    }
  counters_.emplace_back(name, value);
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  char buf[512];
  out << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"rss_mb\": %.3f}",
                  i ? "," : "", s.id, s.parent, s.name.c_str(), s.start_s,
                  s.end_s, s.rss_mb);
    out << buf;
  }
  out << "\n], \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\n  \"%s\": %.17g", i ? "," : "",
                  counters_[i].first.c_str(), counters_[i].second);
    out << buf;
  }
  out << "\n}}\n";
}

}  // namespace perfbench
