#include "bench/harness.h"

#include <algorithm>
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

JsonObject& JsonObject::add(const std::string& key, u64 value) {
  fields_.push_back(Field{.key = key, .scalar = std::to_string(value)});
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, double value) {
  fields_.push_back(Field{.key = key, .scalar = format_double(value)});
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted.append(escape_json(value)).append("\"");
  fields_.push_back(Field{.key = key, .scalar = std::move(quoted)});
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, JsonObject value) {
  fields_.push_back(Field{.key = key, .object = std::move(value.fields_)});
  return *this;
}

std::string JsonObject::to_json(int indent) const {
  return render(fields_, indent);
}

std::string JsonObject::render(const std::vector<Field>& fields, int indent) {
  const bool nested =
      std::any_of(fields.begin(), fields.end(),
                  [](const Field& f) { return f.scalar.empty(); });
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Field& field = fields[i];
    if (i > 0) out += nested ? "," : ", ";
    if (nested) out.append("\n").append(pad);
    out.append("\"").append(escape_json(field.key)).append("\": ");
    out += field.scalar.empty() ? render(field.object, indent + 2)
                                : field.scalar;
  }
  if (nested) out.append("\n").append(static_cast<std::size_t>(indent), ' ');
  return out + "}";
}

JsonObject topology_section(
    const std::vector<std::pair<std::string, workload::TopologyResult>>&
        sweep) {
  using Counter = u64 workload::TopologyResult::*;
  using R = workload::TopologyResult;
  // The summed totals, in section order. A configuration entry repeats the
  // first eight (its terminal accounting) plus breaker_trips.
  constexpr std::pair<const char*, Counter> kTotals[] = {
      {"requests", &R::requests},
      {"completed", &R::completed},
      {"dropped", &R::dropped},
      {"failed", &R::failed},
      {"goodput", &R::goodput},
      {"deadline_missed", &R::deadline_missed},
      {"crashed_attempts", &R::crashed_attempts},
      {"retries", &R::retries},
      {"retry_budget_denied", &R::retry_budget_denied},
      {"hedges", &R::hedges},
      {"breaker_trips", &R::breaker_trips},
      {"breaker_probes", &R::breaker_probes},
      {"forks", &R::forks},
      {"cow_pages_copied", &R::cow_pages_copied},
      {"backoff_cycles", &R::backoff_cycles},
      {"gauge_samples", &R::gauge_samples},
  };
  constexpr std::size_t kEntryAccounting = 8;

  // Every value is an integer summed in sweep order, so the section is
  // bitwise identical for every --threads value.
  R total;
  std::map<std::string, JsonObject> configs;
  for (const auto& [tag, r] : sweep) {
    for (const auto& [key, counter] : kTotals) total.*counter += r.*counter;
    for (const auto& [cause, count] : r.drops) total.drops[cause] += count;

    JsonObject entry;
    for (std::size_t i = 0; i < kEntryAccounting; ++i) {
      entry.add(kTotals[i].first, r.*kTotals[i].second);
    }
    const auto phase = [](const workload::PhaseStats& p) {
      return JsonObject().add("arrivals", p.arrivals).add("goodput", p.goodput);
    };
    entry.add("breaker_trips", r.breaker_trips)
        .add("phases", JsonObject()
                           .add("pre_storm", phase(r.pre_storm))
                           .add("storm", phase(r.storm))
                           .add("post_storm", phase(r.post_storm)))
        .add("latency", JsonObject()
                            .add("p50", r.latency.p50())
                            .add("p90", r.latency.p90())
                            .add("p99", r.latency.p99())
                            .add("p999", r.latency.p999())
                            .add("max", r.latency.max())
                            .add("count", r.latency.count()));
    configs[tag] = std::move(entry);
  }
  JsonObject section;
  for (const auto& [key, counter] : kTotals) section.add(key, total.*counter);
  return section.add("drops", total.drops).add("configs", configs);
}

std::string to_json(
    const std::string& bench_name, const BenchOptions& options, u64 base_seed,
    const std::vector<Metric>& metrics, double wall_seconds,
    const obs::Metrics* obs_metrics,
    const std::vector<std::pair<std::string, JsonObject>>& sections) {
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
  for (const auto& [name, section] : sections) {
    out += "  \"" + escape_json(name) + "\": " + section.to_json(2) + ",\n";
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

void BenchReporter::set_section(const std::string& name,
                                JsonObject section) {
  for (auto& [existing, object] : sections_) {
    if (existing == name) {
      object = std::move(section);
      return;
    }
  }
  sections_.emplace_back(name, std::move(section));
}

bool BenchReporter::finish() {
  if (finished_) return true;
  finished_ = true;
  if (options_.json_path.empty()) return true;
  const double wall_seconds =
      static_cast<double>(now_ns() - start_ns_) * 1e-9;
  const std::string body =
      to_json(bench_name_, options_, base_seed_, metrics_, wall_seconds,
              has_obs_metrics_ ? &obs_metrics_ : nullptr, sections_);
  if (!write_file(options_.json_path, body, bench_name_)) return false;
  std::cout << "[json] wrote " << options_.json_path << "\n";
  return true;
}

}  // namespace acs::bench
