// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent) on the host clock, opened and closed
// by the benchmark around its own calls into the library's layers; nothing
// inside the library is instrumented. Spans nest strictly (the benchmark is
// single-threaded), so a span's self time is its duration minus the
// durations of its direct children. When recording is off, Scope is a
// no-op that costs one branch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the recorder's origin
    double end = 0.0;
    int parent = -1;
  };

  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  class Scope {
   public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), id_(spans.open(name)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };

  /// Per-name count, total and self seconds.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total += d;
      t.self += d - child_time[i];
    }
    return out;
  }

  /// Fixed-width per-layer table (one row per span name).
  [[nodiscard]] std::string table() const {
    std::string out =
        "span                                 count    total_s     self_s\n";
    char line[160];
    for (const auto& [name, t] : totals()) {
      std::snprintf(line, sizeof(line), "%-36s %5d %10.4f %10.4f\n",
                    name.c_str(), t.count, t.total, t.self);
      out += line;
    }
    return out;
  }

  /// Writes every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
