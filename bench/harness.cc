#include "bench/harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "workload/topology.h"

namespace acs::bench {
namespace {

[[nodiscard]] long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_usage(const char* bench_name, const char* extra_usage,
                 bool obs_flags) {
  std::cout << "usage: " << bench_name << " [options]\n"
            << "  --threads=N   host threads for Monte-Carlo campaigns\n"
            << "                (0 = all hardware threads, default 1;\n"
            << "                 results are bitwise identical for any N)\n"
            << "  --json=PATH   also write machine-readable results to PATH\n"
            << "                (schema: docs/bench-output.md)\n"
            << "  --smoke       tiny trial counts (CI smoke mode)\n"
            << "  --help        this message\n";
  if (obs_flags) {
    std::cout
        << "  --trace=PATH    write a Chrome trace-event JSON file\n"
        << "                  (open in https://ui.perfetto.dev)\n"
        << "  --profile=PATH  write a folded-stack (flamegraph) profile\n";
  }
  if (extra_usage != nullptr) std::cout << extra_usage;
}

/// Consume `--flag=value` or `--flag value`; returns nullptr if argv[i]
/// is not this flag, otherwise the value (advancing i for the two-token
/// form). Exits(2) when the value is missing.
[[nodiscard]] const char* flag_value(int argc, char** argv, int& i,
                                     const char* flag,
                                     const char* bench_name) {
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flag_len) != 0) return nullptr;
  const char* rest = argv[i] + flag_len;
  if (*rest == '=') return rest + 1;
  if (*rest != '\0') return nullptr;  // e.g. --threadsX
  if (i + 1 >= argc) {
    std::cerr << bench_name << ": " << flag << " requires a value\n";
    std::exit(2);
  }
  return argv[++i];
}

[[nodiscard]] unsigned parse_threads(const char* value,
                                     const char* bench_name) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || parsed > 4096) {
    std::cerr << bench_name << ": bad --threads value '" << value << "'\n";
    std::exit(2);
  }
  return static_cast<unsigned>(parsed);
}

/// JSON string escaping for the small subset we emit (metric names, units,
/// paths): control characters, quotes, backslashes.
[[nodiscard]] std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest-round-trip double formatting; %.17g always round-trips and
/// avoids locale-dependent streams.
[[nodiscard]] std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

BenchOptions parse_bench_args(int argc, char** argv, const char* bench_name,
                              const char* extra_usage, bool obs_flags) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(bench_name, extra_usage, obs_flags);
      std::exit(0);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--threads", bench_name)) {
      options.threads = parse_threads(v, bench_name);
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--json", bench_name)) {
      options.json_path = v;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--trace", bench_name)) {
      if (!obs_flags) {
        std::cerr << bench_name
                  << ": --trace is not supported by this bench\n";
        std::exit(2);
      }
      options.trace_path = v;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--profile", bench_name)) {
      if (!obs_flags) {
        std::cerr << bench_name
                  << ": --profile is not supported by this bench\n";
        std::exit(2);
      }
      options.profile_path = v;
      continue;
    }
    std::cerr << bench_name << ": unknown flag '" << argv[i]
              << "' (see --help)\n";
    std::exit(2);
  }
  return options;
}

bool write_file(const std::string& path, const std::string& body,
                const std::string& context) {
  std::ofstream file(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!file) {
    std::cerr << context << ": cannot open '" << path << "' for writing\n";
    return false;
  }
  file << body;
  file.flush();
  if (!file) {
    std::cerr << context << ": write to '" << path << "' failed\n";
    return false;
  }
  return true;
}

namespace {

/// {"name": count, ...} with std::map (sorted-key) iteration order.
[[nodiscard]] std::string counter_map_json(
    const std::map<std::string, u64>& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, count] : counters) {
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(escape_json(name)).append("\": ").append(
        std::to_string(count));
  }
  out += "}";
  return out;
}

}  // namespace

namespace {

/// {"p50": ..., ..., "count": ...} — the LatencySummary encoding of the
/// "topology" section's entries.
[[nodiscard]] std::string latency_summary_json(const LatencySummary& s) {
  return "{\"p50\": " + std::to_string(s.p50) + ", \"p90\": " +
         std::to_string(s.p90) + ", \"p99\": " + std::to_string(s.p99) +
         ", \"p999\": " + std::to_string(s.p999) + ", \"max\": " +
         std::to_string(s.max) + ", \"count\": " + std::to_string(s.count) +
         "}";
}

}  // namespace

void TopologySection::add(const std::string& tag,
                          const workload::TopologyResult& result) {
  requests += result.requests;
  completed += result.completed;
  dropped += result.dropped;
  failed += result.failed;
  goodput += result.goodput;
  deadline_missed += result.deadline_missed;
  crashed_attempts += result.crashed_attempts;
  retries += result.retries;
  retry_budget_denied += result.retry_budget_denied;
  hedges += result.hedges;
  breaker_trips += result.breaker_trips;
  breaker_probes += result.breaker_probes;
  forks += result.forks;
  cow_pages_copied += result.cow_pages_copied;
  backoff_cycles += result.backoff_cycles;
  gauge_samples += result.gauge_samples;
  for (const auto& [cause, count] : result.drops) drops[cause] += count;
  configs[tag] = TopologyEntry{
      .requests = result.requests,
      .completed = result.completed,
      .dropped = result.dropped,
      .failed = result.failed,
      .goodput = result.goodput,
      .deadline_missed = result.deadline_missed,
      .crashed_attempts = result.crashed_attempts,
      .retries = result.retries,
      .breaker_trips = result.breaker_trips,
      .pre_storm_arrivals = result.pre_storm.arrivals,
      .pre_storm_goodput = result.pre_storm.goodput,
      .storm_arrivals = result.storm.arrivals,
      .storm_goodput = result.storm.goodput,
      .post_storm_arrivals = result.post_storm.arrivals,
      .post_storm_goodput = result.post_storm.goodput,
      .latency =
          LatencySummary{
              .p50 = result.latency.p50(),
              .p90 = result.latency.p90(),
              .p99 = result.latency.p99(),
              .p999 = result.latency.p999(),
              .max = result.latency.max(),
              .count = result.latency.count(),
          },
  };
}

std::string to_json(const std::string& bench_name,
                    const BenchOptions& options, u64 base_seed,
                    const std::vector<Metric>& metrics,
                    double wall_seconds, const obs::Metrics* obs_metrics,
                    const FaultSection* faults, const FuzzSection* fuzz,
                    const LintSection* lint,
                    const TopologySection* topology,
                    const KernelsSection* kernels) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + escape_json(bench_name) + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"threads\": " + std::to_string(options.threads) + ",\n";
  out += "  \"seed\": " + std::to_string(base_seed) + ",\n";
  out += std::string("  \"smoke\": ") + (options.smoke ? "true" : "false") +
         ",\n";
  out += "  \"wall_seconds\": " + format_double(wall_seconds) + ",\n";
  if (obs_metrics != nullptr) {
    // Deterministic (integer counters, std::map order, fixed merge order):
    // this section is bitwise identical for every --threads value.
    out += "  \"obs\": " + obs_metrics->to_json(2) + ",\n";
  }
  if (faults != nullptr) {
    // Integer counters in fixed (sorted-key / trial) order — like "obs",
    // bitwise identical for every --threads value.
    out += "  \"faults\": {\n";
    out += "    \"injected\": " + counter_map_json(faults->injected) + ",\n";
    out += "    \"crashes\": " + counter_map_json(faults->crashes) + ",\n";
    out += "    \"restarts\": " + std::to_string(faults->restarts) + ",\n";
    out += "    \"guess_attempts\": " + std::to_string(faults->guess_attempts) +
           ",\n";
    out += "    \"guess_successes\": " +
           std::to_string(faults->guess_successes) + ",\n";
    out += "    \"backoff_cycles\": " + std::to_string(faults->backoff_cycles) +
           "\n";
    out += "  },\n";
  }
  if (fuzz != nullptr) {
    // Integer counters in fixed (trial) order; the fingerprint is an
    // order-independent set digest — bitwise identical for any --threads.
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(fuzz->coverage_fingerprint));
    out += "  \"fuzz\": {\n";
    out += "    \"candidates\": " + std::to_string(fuzz->candidates) + ",\n";
    out += "    \"viable\": " + std::to_string(fuzz->viable) + ",\n";
    out += "    \"executions\": " + std::to_string(fuzz->executions) + ",\n";
    out += "    \"rounds\": " + std::to_string(fuzz->rounds) + ",\n";
    out += "    \"corpus_size\": " + std::to_string(fuzz->corpus_size) + ",\n";
    out += "    \"features_covered\": " +
           std::to_string(fuzz->features_covered) + ",\n";
    out += "    \"coverage_fingerprint\": \"" + std::string(fp) + "\",\n";
    out += "    \"findings\": " + counter_map_json(fuzz->findings_by_oracle) +
           "\n";
    out += "  },\n";
  }
  if (lint != nullptr) {
    // Pure function of the workload/scheme sets: integer counters in fixed
    // iteration order, bitwise identical for every --threads value.
    out += "  \"lint\": {\n";
    out += "    \"programs\": " + std::to_string(lint->programs) + ",\n";
    out += "    \"functions_verified\": " +
           std::to_string(lint->functions_verified) + ",\n";
    out += "    \"diagnostics\": " + std::to_string(lint->diagnostics) + ",\n";
    out += "    \"witnesses\": " + std::to_string(lint->witnesses) + ",\n";
    out += "    \"replays_confirmed\": " +
           std::to_string(lint->replays_confirmed) + ",\n";
    out += "    \"replays_refuted\": " +
           std::to_string(lint->replays_refuted) + ",\n";
    out += "    \"replays_unconfirmed\": " +
           std::to_string(lint->replays_unconfirmed) + ",\n";
    out += "    \"findings_by_code\": " +
           counter_map_json(lint->findings_by_code) + ",\n";
    out += "    \"findings_by_function\": " +
           counter_map_json(lint->findings_by_function) + "\n";
    out += "  },\n";
  }
  if (topology != nullptr) {
    // Integer counters in fixed sweep order — like "obs", bitwise
    // identical for every --threads value (the bench_topology_invariance
    // ctest target pins the section at 1 vs 2 vs 8 threads).
    out += "  \"topology\": {\n";
    out += "    \"requests\": " + std::to_string(topology->requests) + ",\n";
    out += "    \"completed\": " + std::to_string(topology->completed) + ",\n";
    out += "    \"dropped\": " + std::to_string(topology->dropped) + ",\n";
    out += "    \"failed\": " + std::to_string(topology->failed) + ",\n";
    out += "    \"goodput\": " + std::to_string(topology->goodput) + ",\n";
    out += "    \"deadline_missed\": " +
           std::to_string(topology->deadline_missed) + ",\n";
    out += "    \"crashed_attempts\": " +
           std::to_string(topology->crashed_attempts) + ",\n";
    out += "    \"retries\": " + std::to_string(topology->retries) + ",\n";
    out += "    \"retry_budget_denied\": " +
           std::to_string(topology->retry_budget_denied) + ",\n";
    out += "    \"hedges\": " + std::to_string(topology->hedges) + ",\n";
    out += "    \"breaker_trips\": " + std::to_string(topology->breaker_trips) +
           ",\n";
    out += "    \"breaker_probes\": " +
           std::to_string(topology->breaker_probes) + ",\n";
    out += "    \"forks\": " + std::to_string(topology->forks) + ",\n";
    out += "    \"cow_pages_copied\": " +
           std::to_string(topology->cow_pages_copied) + ",\n";
    out += "    \"backoff_cycles\": " +
           std::to_string(topology->backoff_cycles) + ",\n";
    out += "    \"gauge_samples\": " + std::to_string(topology->gauge_samples) +
           ",\n";
    out += "    \"drops\": " + counter_map_json(topology->drops) + ",\n";
    out += "    \"configs\": {";
    bool first_config = true;
    for (const auto& [tag, entry] : topology->configs) {
      out += first_config ? "\n" : ",\n";
      first_config = false;
      out += "      \"" + escape_json(tag) + "\": {\n";
      out += "        \"requests\": " + std::to_string(entry.requests) + ",\n";
      out += "        \"completed\": " + std::to_string(entry.completed) +
             ",\n";
      out += "        \"dropped\": " + std::to_string(entry.dropped) + ",\n";
      out += "        \"failed\": " + std::to_string(entry.failed) + ",\n";
      out += "        \"goodput\": " + std::to_string(entry.goodput) + ",\n";
      out += "        \"deadline_missed\": " +
             std::to_string(entry.deadline_missed) + ",\n";
      out += "        \"crashed_attempts\": " +
             std::to_string(entry.crashed_attempts) + ",\n";
      out += "        \"retries\": " + std::to_string(entry.retries) + ",\n";
      out += "        \"breaker_trips\": " +
             std::to_string(entry.breaker_trips) + ",\n";
      out += "        \"phases\": {\"pre_storm\": {\"arrivals\": " +
             std::to_string(entry.pre_storm_arrivals) + ", \"goodput\": " +
             std::to_string(entry.pre_storm_goodput) +
             "}, \"storm\": {\"arrivals\": " +
             std::to_string(entry.storm_arrivals) + ", \"goodput\": " +
             std::to_string(entry.storm_goodput) +
             "}, \"post_storm\": {\"arrivals\": " +
             std::to_string(entry.post_storm_arrivals) + ", \"goodput\": " +
             std::to_string(entry.post_storm_goodput) + "}},\n";
      out += "        \"latency\": " + latency_summary_json(entry.latency) +
             "\n";
      out += "      }";
    }
    out += topology->configs.empty() ? "}\n" : "\n    }\n";
    out += "  },\n";
  }
  if (kernels != nullptr) {
    // Integer cycle/instruction totals in fixed sweep order; the doubles
    // are ratios of those integers — bitwise identical for every
    // --threads value (the bench_kernels_invariance ctest target pins the
    // section at 1 vs 2 vs 8 threads).
    out += "  \"kernels\": {\n";
    out += "    \"kernels\": " + std::to_string(kernels->kernels) + ",\n";
    out += "    \"schemes\": " + std::to_string(kernels->schemes) + ",\n";
    out += "    \"runs\": " + std::to_string(kernels->runs) + ",\n";
    out += "    \"total_cycles\": " + std::to_string(kernels->total_cycles) +
           ",\n";
    out += "    \"total_instructions\": " +
           std::to_string(kernels->total_instructions) + ",\n";
    out += "    \"entries\": {";
    bool first_entry = true;
    for (const auto& [tag, entry] : kernels->entries) {
      out += first_entry ? "\n" : ",\n";
      first_entry = false;
      out += "      \"" + escape_json(tag) + "\": {\n";
      out += "        \"functions\": " + std::to_string(entry.functions) +
             ",\n";
      out += "        \"static_calls\": " +
             std::to_string(entry.static_calls) + ",\n";
      out += "        \"static_depth\": " +
             std::to_string(entry.static_depth) + ",\n";
      out += "        \"cycles\": " + std::to_string(entry.cycles) + ",\n";
      out += "        \"instructions\": " +
             std::to_string(entry.instructions) + ",\n";
      out += "        \"calls\": " + std::to_string(entry.calls) + ",\n";
      out += "        \"pa_instructions\": " +
             std::to_string(entry.pa_instructions) + ",\n";
      out += "        \"chain_pushes\": " +
             std::to_string(entry.chain_pushes) + ",\n";
      out += "        \"overhead_percent\": " +
             format_double(entry.overhead_percent) + ",\n";
      out += "        \"cycles_per_call\": " +
             format_double(entry.cycles_per_call) + ",\n";
      out += "        \"cycles_per_instruction\": " +
             format_double(entry.cycles_per_instruction) + "\n";
      out += "      }";
    }
    out += kernels->entries.empty() ? "}\n" : "\n    }\n";
    out += "  },\n";
  }
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"name\": \"" + escape_json(m.name) + "\", ";
    out += "\"value\": " + format_double(m.value) + ", ";
    out += "\"units\": \"" + escape_json(m.units) + "\", ";
    out += "\"trials\": " + std::to_string(m.trials) + ", ";
    out += "\"stddev\": " + format_double(m.stddev) + "}";
  }
  out += metrics.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

BenchReporter::BenchReporter(std::string bench_name, BenchOptions options,
                             u64 base_seed)
    : bench_name_(std::move(bench_name)),
      options_(std::move(options)),
      base_seed_(base_seed),
      start_ns_(now_ns()) {}

void BenchReporter::record(std::string name, double value, std::string units,
                           u64 trials, double stddev) {
  metrics_.push_back(Metric{.name = std::move(name),
                            .value = value,
                            .units = std::move(units),
                            .trials = trials,
                            .stddev = stddev});
}

void BenchReporter::set_obs_metrics(obs::Metrics metrics) {
  obs_metrics_ = std::move(metrics);
  has_obs_metrics_ = true;
}

void BenchReporter::set_fault_section(FaultSection faults) {
  fault_section_ = std::move(faults);
  has_fault_section_ = true;
}

void BenchReporter::set_fuzz_section(FuzzSection fuzz) {
  fuzz_section_ = std::move(fuzz);
  has_fuzz_section_ = true;
}

void BenchReporter::set_lint_section(LintSection lint) {
  lint_section_ = std::move(lint);
  has_lint_section_ = true;
}

void BenchReporter::set_topology_section(TopologySection topology) {
  topology_section_ = std::move(topology);
  has_topology_section_ = true;
}

void BenchReporter::set_kernels_section(KernelsSection kernels) {
  kernels_section_ = std::move(kernels);
  has_kernels_section_ = true;
}

bool BenchReporter::finish() {
  if (finished_) return true;
  finished_ = true;
  if (options_.json_path.empty()) return true;
  const double wall_seconds =
      static_cast<double>(now_ns() - start_ns_) * 1e-9;
  const std::string body =
      to_json(bench_name_, options_, base_seed_, metrics_, wall_seconds,
              has_obs_metrics_ ? &obs_metrics_ : nullptr,
              has_fault_section_ ? &fault_section_ : nullptr,
              has_fuzz_section_ ? &fuzz_section_ : nullptr,
              has_lint_section_ ? &lint_section_ : nullptr,
              has_topology_section_ ? &topology_section_ : nullptr,
              has_kernels_section_ ? &kernels_section_ : nullptr);
  if (!write_file(options_.json_path, body, bench_name_)) return false;
  std::cout << "[json] wrote " << options_.json_path << "\n";
  return true;
}

}  // namespace acs::bench
