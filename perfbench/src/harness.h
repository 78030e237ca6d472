// Shared plumbing of the layered host-performance benchmark: host clocks,
// the in-memory span log of the traced run, a minimal JSON writer, and the
// interface every workload implements.
//
// Everything here measures from outside the program under test: spans are
// opened and closed in the benchmark's own files around calls into the
// repository's public entry points, never inside them.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using acs::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (user + system), all threads.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of the process, MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One host-time span: a call into one layer. `parent` is the index of the
/// enclosing span (-1 for a root) and `op` the op it belongs to.
struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  long parent = -1;
  u64 op = 0;
};

/// In-memory span recorder. Spans nest through an explicit stack of open
/// spans, so a span opened inside another becomes its child. Written out
/// once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::size_t begin(const char* name, u64 op) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back({name, now_us(), 0, parent, op});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_us = now_us();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log records nothing (the untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, u64 op)
      : log_(log), id_(log != nullptr ? log->begin(name, op) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

/// Flat JSON object writer: keys map to numbers, strings, or nested objects
/// already rendered as JSON text.
class Json {
 public:
  Json& num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  Json& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& obj(const std::string& key, const Json& value) {
    return raw(key, value.text());
  }
  Json& raw(const std::string& key, const std::string& json_text) {
    fields_[key] = json_text;
    return *this;
  }

  [[nodiscard]] std::string text() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : fields_) {
      if (!first) out += ",";
      first = false;
      out += quote(key) + ":" + value;
    }
    return out + "}";
  }

  [[nodiscard]] static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::map<std::string, std::string> fields_;
};

/// Render a numeric vector as a JSON array.
[[nodiscard]] inline std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Outcome of one op: workload units it simulated, whether its output check
/// passed, a fingerprint of its outputs (compared between the untraced and
/// traced phases of one run), and its op class: ops of one class do the
/// same work (one sweep config), so their times are comparable.
struct OpResult {
  u64 units = 0;
  bool ok = false;
  std::string fingerprint;
  u64 op_class = 0;
};

/// One attributed layer: `count` events at `unit_ns` each. The count may be
/// fractional (work divided across the workload's threads).
struct Layer {
  double count = 0;
  double unit_ns = 0;
};

/// A workload: set-up, a stream of ops, and the traced run's extras.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* unit() const = 0;
  [[nodiscard]] virtual unsigned threads() const = 0;

  /// Build everything the timed phase needs (compile IR, build masters,
  /// warm up). Called several times; each call replaces the previous state.
  virtual void setup(SpanLog* log) = 0;

  /// Run op `index`. With `count` set, also accumulate layer counts.
  virtual OpResult run_op(u64 index, SpanLog* log, bool count) = 0;

  /// Output checks beyond the per-op ones: pinned reference ops and the
  /// thread-count invariance check. Adds keys to `out`; returns false on a
  /// failed check.
  virtual bool check(Json& out) = 0;

  /// Traced run only: unit costs measured on this workload's own inputs,
  /// in passes repeated for about `budget_s` seconds; the per-layer
  /// metrics; and the layers (count x unit cost) the op time of the counted
  /// phase is attributed to.
  virtual void profile(double budget_s, Json& layer_metrics,
                       std::map<std::string, Layer>& attribution) = 0;
};

}  // namespace perfbench
