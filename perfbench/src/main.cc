// perfbench: the measuring program of the layered host-performance
// benchmark (see ../README.md).
//
//   perfbench --workload calls|serving|mc --seed N --seconds S --trace 0|1
//             --reference PINS.txt [--pin 1] --out RAW.json
//
// Runs the workload's set-up several times, then a closed loop of ops for S
// seconds, then the workload's reference and invariance checks, and writes
// the raw measurements (phase wall and CPU time, histograms of every op
// class's observed wall and CPU times, set-up samples, spans, unit costs,
// layer counts) to RAW.json. run.py reduces them to the reported metrics.
// Output checks compare against the values pinned in PINS.txt; --pin 1
// rewrites PINS.txt from this run instead.
//
// With --trace 1 the S seconds are split: an untraced phase, then the same
// op sequence again with spans and layer counters on (the two must produce
// identical op fingerprints), then unit-cost timing of each layer's public
// functions on this workload's own inputs.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is timed this many times before the timed phase, then again about
// every kSetupSpacing of it (between ops, outside the op timing) and once
// after it; setup_s is the lower decile of those samples.
constexpr int kSetupsBefore = 2;
constexpr double kSetupSpacing = 0.1;
/// Share of --seconds for each of the traced run's untraced and traced
/// phases; unit-cost timing gets the rest.
constexpr double kTracedSplit = 0.4;

/// Observed op times in log-spaced buckets 0.1% wide from 0.1 us up.
/// Quantiles read from it are exact to 0.1%. Only occupied buckets are
/// stored, so the benchmark's own memory stays bounded however many ops run
/// (it would show in peak_rss_mb). run.py reads the quantiles.
class Histogram {
 public:
  static constexpr double kLowestMs = 1e-4;
  static constexpr double kGrowth = 1.001;

  void add(double ms) {
    ++counts_[static_cast<unsigned>(std::log(std::max(ms, kLowestMs) / kLowestMs) /
                                    std::log(kGrowth))];
  }

  /// {"lowest_ms", "growth", "buckets": [[index, count], ...]}.
  [[nodiscard]] Json to_json() const {
    std::string rows = "[";
    char buf[48];
    for (const auto& [index, count] : counts_) {
      std::snprintf(buf, sizeof buf, "%s[%u,%u]", rows.size() > 1 ? "," : "", index,
                    count);
      rows += buf;
    }
    Json out;
    out.num("lowest_ms", kLowestMs).num("growth", kGrowth).raw("buckets", rows + "]");
    return out;
  }

 private:
  std::map<unsigned, unsigned> counts_;
};

/// Observed wall and CPU time of every op of one class.
struct ClassTimes {
  Histogram wall_ms;
  Histogram cpu_ms;
};

struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  u64 units = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<u64, ClassTimes> classes;
  std::vector<std::string> fingerprints;  ///< per op, when requested

  [[nodiscard]] Json to_json() const {
    std::string rows = "[";
    for (const auto& [op_class, times] : classes) {
      if (rows.size() > 1) rows += ",";
      rows += Json()
                  .num("class", static_cast<double>(op_class))
                  .obj("wall_ms", times.wall_ms.to_json())
                  .obj("cpu_ms", times.cpu_ms.to_json())
                  .text();
    }
    Json out;
    out.num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("units", static_cast<double>(units))
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .raw("classes", rows + "]");
    return out;
  }
};

/// Times one call of Workload::setup per call, collecting the samples.
class SetupTimer {
 public:
  explicit SetupTimer(Workload& workload) : workload_(workload) {}
  void time(SpanLog* log) {
    const auto t0 = Clock::now();
    workload_.setup(log);
    samples_.push_back(seconds_since(t0));
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  Workload& workload_;
  std::vector<double> samples_;
};

/// Closed loop: op i+1 starts when op i returns, until `seconds` elapse.
/// With `keep_fingerprints`, the phase keeps every op's fingerprint; with
/// `expected` set, op i must reproduce expected[i]'s fingerprint. Between
/// ops, set-up is re-timed every kSetupSpacing of `seconds`; those pauses
/// are excluded from every phase figure.
Phase run_phase(Workload& workload, double seconds, SpanLog* log, bool count,
                bool keep_fingerprints, const std::vector<std::string>* expected,
                SetupTimer& setups) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  double paused_s = 0;  // time spent re-timing set-up
  double paused_cpu = 0;
  double next_setup = kSetupSpacing * seconds;
  for (u64 i = 0; seconds_since(start) - paused_s < seconds; ++i) {
    const double cpu_before = process_cpu_s();
    const auto t0 = Clock::now();
    OpResult result;
    {
      Scope span(log, "bench.op", i);
      result = workload.run_op(i, log, count);
    }
    ClassTimes& times = phase.classes[result.op_class];
    times.wall_ms.add(seconds_since(t0) * 1e3);
    times.cpu_ms.add((process_cpu_s() - cpu_before) * 1e3);
    if (expected != nullptr && i < expected->size() &&
        (*expected)[i] != result.fingerprint) {
      result.ok = false;
    }
    phase.units += result.units;
    ++phase.attempted;
    if (!result.ok) ++phase.failed;
    if (keep_fingerprints) phase.fingerprints.push_back(std::move(result.fingerprint));

    if (seconds_since(start) - paused_s >= next_setup) {
      const auto pause_start = Clock::now();
      const double pause_cpu = process_cpu_s();
      setups.time(nullptr);
      paused_s += seconds_since(pause_start);
      paused_cpu += process_cpu_s() - pause_cpu;
      next_setup += kSetupSpacing * seconds;
    }
  }
  phase.wall_s = seconds_since(start) - paused_s;
  phase.cpu_s = process_cpu_s() - cpu0 - paused_cpu;
  return phase;
}

std::string spans_json(const SpanLog& log) {
  std::string out = "[";
  char buf[160];
  bool first = true;
  for (const Span& s : log.spans()) {
    std::snprintf(buf, sizeof buf, "%s[\"%s\",%.3f,%.3f,%ld,%llu]",
                  first ? "" : ",", s.name, s.start_us, s.end_us, s.parent,
                  static_cast<unsigned long long>(s.op));
    out += buf;
    first = false;
  }
  return out + "]";
}

struct Args {
  std::string workload;
  std::string out;
  std::string reference;
  bool pin = false;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--pin") {
      args.pin = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.reference.empty() ||
      args.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload calls|serving|mc --seed N --seconds S "
        "--trace 0|1 --reference PINS.txt [--pin 1] --out RAW.json");
  }
  return args;
}

int run(const Args& args) {
  Reference reference(args.reference, args.pin);
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, reference);
  SpanLog log(Clock::now());
  SpanLog* const traced_log = args.trace ? &log : nullptr;

  Json raw;
  raw.str("workload", args.workload)
      .str("unit", workload->unit())
      .num("threads", workload->threads())
      .num("seed", static_cast<double>(args.seed))
      .boolean("trace", args.trace);

  SetupTimer setups(*workload);
  for (int r = 0; r < kSetupsBefore; ++r) {
    setups.time(r == kSetupsBefore - 1 ? traced_log : nullptr);
  }

  if (!args.trace) {
    const Phase timed =
        run_phase(*workload, args.seconds, nullptr, false, false, nullptr, setups);
    raw.obj("timed", timed.to_json()).num("peak_rss_mb", peak_rss_mb());
  } else {
    const Phase plain = run_phase(*workload, args.seconds * kTracedSplit,
                                  nullptr, false, true, nullptr, setups);
    const Phase traced = run_phase(*workload, args.seconds * kTracedSplit, traced_log,
                                   true, false, &plain.fingerprints, setups);
    raw.obj("untraced", plain.to_json()).obj("traced", traced.to_json());
    raw.num("peak_rss_mb", peak_rss_mb());

    Json layer_metrics;
    std::map<std::string, Layer> layers;
    workload->profile(args.seconds * (1 - 2 * kTracedSplit), layer_metrics, layers);
    Json attribution;
    for (const auto& [name, layer] : layers) {
      attribution.obj(name, Json()
                                .num("count", layer.count)
                                .num("unit_ns", layer.unit_ns));
    }
    raw.obj("layer_metrics", layer_metrics)
        .obj("attribution", attribution)
        .raw("spans", spans_json(log));
  }

  setups.time(nullptr);
  raw.raw("setup_s", json_array(setups.samples()));

  Json checks;
  const bool checks_ok = workload->check(checks);
  raw.obj("checks", checks).boolean("checks_ok", checks_ok);
  reference.save();

  std::ofstream out(args.out);
  out << raw.text() << "\n";
  if (!out) {
    std::cerr << "perfbench: cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
