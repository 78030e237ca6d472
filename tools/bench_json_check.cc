// bench_json_check — validates machine-readable observability/bench output.
// Used by the bench_smoke and obs ctest targets; exits 0 iff every file
// passes. No third-party JSON dependency: the shared ~150-line parser in
// bench/json_view.h covers the full JSON grammar.
//
//   bench_json_check PATH [PATH...]            BENCH_*.json trajectories
//                                              (schema: docs/bench-output.md,
//                                               incl. the optional "obs"
//                                               metrics section)
//   bench_json_check --trace-file PATH [...]   Chrome trace-event JSON files
//                                              (docs/observability.md)
//   bench_json_check --folded-file PATH [...]  folded-stack profiles
//                                              ("frame;frame cycles" lines)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/json_view.h"

namespace {

using acs::bench::json::Array;
using acs::bench::json::Object;
using acs::bench::json::Parser;
using acs::bench::json::Value;
using acs::bench::json::find;

/// The shared parser accepts printf-style nan/inf tokens so tools can
/// diagnose them; a validated artifact must not contain any. Returns the
/// dotted path of the first non-finite numeric leaf, or empty.
std::string find_nonfinite(const Value& value, const std::string& path) {
  if (value.is_number() && !std::isfinite(value.number())) return path;
  if (const Object* object = value.object()) {
    for (const auto& [key, child] : *object) {
      std::string bad =
          find_nonfinite(child, path.empty() ? key : path + "." + key);
      if (!bad.empty()) return bad;
    }
  }
  if (const Array* array = value.array()) {
    for (std::size_t i = 0; i < array->size(); ++i) {
      std::string bad = find_nonfinite(
          (*array)[i], path + "[" + std::to_string(i) + "]");
      if (!bad.empty()) return bad;
    }
  }
  return {};
}

/// Array of numbers check; returns the element count via `n`.
bool numeric_array(const Value* v, std::size_t& n) {
  const Array* list = v == nullptr ? nullptr : v->array();
  if (list == nullptr) return false;
  for (const Value& e : *list) {
    if (!e.is_number()) return false;
  }
  n = list->size();
  return true;
}

/// The optional trajectory sections (docs/bench-output.md), as data. A
/// rule applies when the first segment of its path is a top-level key;
/// every later segment must then be an object, and "*" stands for every
/// member of the object reached so far. The object at the end of the path
/// needs each `numbers` key as a number and each `counters` key as a
/// {name: number} map.
struct SectionRule {
  const char* path;
  std::vector<const char*> numbers;
  std::vector<const char*> counters;
};

const SectionRule kSectionRules[] = {
    {"obs", {}, {"counters"}},
    {"obs.histograms.*", {}, {}},
    {"faults",
     {"restarts", "guess_attempts", "guess_successes", "backoff_cycles"},
     {"injected", "crashes"}},
    {"fuzz",
     {"candidates", "viable", "executions", "rounds", "corpus_size",
      "features_covered"},
     {"findings"}},
    {"lint",
     {"programs", "functions_verified", "diagnostics", "witnesses",
      "replays_confirmed", "replays_refuted", "replays_unconfirmed"},
     {"findings_by_code", "findings_by_function"}},
    {"topology",
     {"requests", "completed", "dropped", "failed", "goodput",
      "deadline_missed", "crashed_attempts", "retries", "retry_budget_denied",
      "hedges", "breaker_trips", "breaker_probes", "forks",
      "cow_pages_copied", "backoff_cycles", "gauge_samples"},
     {"drops"}},
    {"topology.configs.*",
     {"requests", "completed", "dropped", "failed", "goodput",
      "deadline_missed", "crashed_attempts", "retries", "breaker_trips"},
     {}},
    {"topology.configs.*.phases.pre_storm", {"arrivals", "goodput"}, {}},
    {"topology.configs.*.phases.storm", {"arrivals", "goodput"}, {}},
    {"topology.configs.*.phases.post_storm", {"arrivals", "goodput"}, {}},
    {"topology.configs.*.latency",
     {"p50", "p90", "p99", "p999", "max", "count"},
     {}},
    {"kernels",
     {"kernels", "schemes", "runs", "total_cycles", "total_instructions"},
     {}},
    {"kernels.entries.*",
     {"functions", "static_calls", "static_depth", "cycles", "instructions",
      "calls", "pa_instructions", "chain_pushes", "overhead_percent",
      "cycles_per_call", "cycles_per_instruction"},
     {}},
};

/// Check `rule` below `object` (reached at dotted path `where`), with
/// `path` the part of the rule's path still to walk.
std::string check_rule(const SectionRule& rule, std::string_view path,
                       const Object& object, const std::string& where) {
  if (!path.empty()) {
    const std::size_t dot = path.find('.');
    const std::string key(path.substr(0, dot));
    const std::string_view rest =
        dot == std::string_view::npos ? "" : path.substr(dot + 1);
    for (const auto& [name, child] : object) {
      if (key != "*" && name != key) continue;
      const std::string at = where.empty() ? name : where + "." + name;
      if (child.object() == nullptr) return "'" + at + "' is not an object";
      std::string error = check_rule(rule, rest, *child.object(), at);
      if (!error.empty()) return error;
    }
    if (key == "*" || find(object, key) != nullptr) return {};
    return "'" + where + "." + key + "' missing";
  }
  for (const char* key : rule.numbers) {
    const Value* v = find(object, key);
    if (v == nullptr || !v->is_number()) {
      return "'" + where + "." + key + "' missing or not a number";
    }
  }
  for (const char* key : rule.counters) {
    const Value* map = find(object, key);
    if (map == nullptr || map->object() == nullptr) {
      return "'" + where + "." + key + "' missing or not an object";
    }
    for (const auto& [name, value] : *map->object()) {
      if (!value.is_number()) {
        return "'" + where + "." + key + "." + name + "' is not a number";
      }
    }
  }
  return {};
}

/// Apply every rule of kSectionRules whose section is present.
std::string check_section_rules(const Object& top) {
  for (const SectionRule& rule : kSectionRules) {
    const std::string_view path(rule.path);
    const std::string section(path.substr(0, path.find('.')));
    if (find(top, section) == nullptr) continue;  // sections are optional
    std::string error = check_rule(rule, path, top, "");
    if (!error.empty()) return error;
  }
  return {};
}

// --- Cross-field rules, run once kSectionRules has passed -----------------

double number(const Object& object, const char* key) {
  return find(object, key)->number();
}

/// Each histogram has `counts` one longer than `edges` (overflow bucket).
std::string check_histogram_buckets(const Object& obs) {
  for (const auto& [name, value] : *find(obs, "histograms")->object()) {
    const std::string where = "'obs.histograms." + name + "'";
    const Object& hist = *value.object();
    std::size_t n_edges = 0, n_counts = 0;
    if (!numeric_array(find(hist, "edges"), n_edges)) {
      return where + " lacks numeric array 'edges'";
    }
    if (!numeric_array(find(hist, "counts"), n_counts)) {
      return where + " lacks numeric array 'counts'";
    }
    if (n_counts != n_edges + 1) {
      return where + " counts/edges size mismatch (want edges+1 buckets)";
    }
  }
  return {};
}

/// The coverage fingerprint is an 0x-prefixed 64-bit hex string.
std::string check_fingerprint(const Object& fuzz) {
  const Value* fingerprint = find(fuzz, "coverage_fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string()) {
    return "'fuzz.coverage_fingerprint' missing or not a string";
  }
  const std::string& fp = fingerprint->string();
  if (fp.size() != 18 || fp.compare(0, 2, "0x") != 0 ||
      fp.find_first_not_of("0123456789abcdef", 2) != std::string::npos) {
    return "'fuzz.coverage_fingerprint' is not an 0x-prefixed 64-bit hex "
           "string";
  }
  return {};
}

/// Replayed witness verdicts cover every witness exactly once whenever any
/// replay counter is non-zero.
std::string check_replays(const Object& lint) {
  const double replays = number(lint, "replays_confirmed") +
                         number(lint, "replays_refuted") +
                         number(lint, "replays_unconfirmed");
  if (replays != 0 && replays != number(lint, "witnesses")) {
    return "'lint.replays_*' verdicts do not sum to 'lint.witnesses'";
  }
  return {};
}

/// Terminal accounting partitions the requests, the drop causes sum to
/// dropped + failed, per-phase goodput stays within arrivals, and every
/// latency summary is monotone.
std::string check_topology_accounting(const Object& topology) {
  if (number(topology, "completed") + number(topology, "dropped") +
          number(topology, "failed") !=
      number(topology, "requests")) {
    return "'topology' terminal accounting broken "
           "(completed + dropped + failed != requests)";
  }
  if (number(topology, "goodput") + number(topology, "deadline_missed") !=
      number(topology, "completed")) {
    return "'topology' goodput accounting broken "
           "(goodput + deadline_missed != completed)";
  }
  double drop_sum = 0;
  for (const auto& [cause, value] : *find(topology, "drops")->object()) {
    drop_sum += value.number();
  }
  if (drop_sum != number(topology, "dropped") + number(topology, "failed")) {
    return "'topology.drops' causes do not sum to dropped + failed";
  }

  for (const auto& [tag, value] : *find(topology, "configs")->object()) {
    const std::string where = "'topology.configs." + tag + "'";
    const Object& entry = *value.object();
    const Object& phases = *find(entry, "phases")->object();
    for (const char* phase : {"pre_storm", "storm", "post_storm"}) {
      const Object& stats = *find(phases, phase)->object();
      if (number(stats, "goodput") > number(stats, "arrivals")) {
        return where + " phase '" + phase + "' goodput exceeds arrivals";
      }
    }
    const Object& latency = *find(entry, "latency")->object();
    const double p50 = number(latency, "p50");
    const double p90 = number(latency, "p90");
    const double p99 = number(latency, "p99");
    const double p999 = number(latency, "p999");
    const double max = number(latency, "max");
    if (number(latency, "count") > 0) {
      if (!(p50 <= p90 && p90 <= p99 && p99 <= p999)) {
        return where + " latency percentiles are not monotone";
      }
      if (p999 > max + max / 32 + 1) {
        return where + " latency p999 exceeds max beyond bucket rounding";
      }
    }
  }
  return {};
}

/// One entry per (kernel, scheme) keyed "<family>/<point>/<scheme>", with
/// cycles >= instructions >= calls, cycles_per_instruction re-derived, and
/// total_cycles the exact entry sum.
std::string check_kernel_accounting(const Object& kernels) {
  const Object& entries = *find(kernels, "entries")->object();
  if (static_cast<double>(entries.size()) !=
      number(kernels, "kernels") * number(kernels, "schemes")) {
    return "'kernels.entries' size != kernels x schemes";
  }
  double cycle_sum = 0;
  for (const auto& [tag, value] : entries) {
    const std::string where = "'kernels.entries." + tag + "'";
    if (tag.find('/') == std::string::npos) {
      return where + " key is not <family>/<point>/<scheme>";
    }
    const Object& entry = *value.object();
    const double cycles = number(entry, "cycles");
    const double instructions = number(entry, "instructions");
    if (instructions > cycles) {
      return where + " instructions exceed cycles (costs are >= 1/instr)";
    }
    if (number(entry, "calls") > instructions) {
      return where + " dynamic calls exceed retired instructions";
    }
    const double cpi = number(entry, "cycles_per_instruction");
    if (instructions > 0 && std::fabs(cpi - cycles / instructions) > 1e-9) {
      return where + " cycles_per_instruction != cycles / instructions";
    }
    cycle_sum += cycles;
  }
  if (cycle_sum != number(kernels, "total_cycles")) {
    return "'kernels.total_cycles' does not sum the entries";
  }
  return {};
}

const struct {
  const char* section;
  std::string (*check)(const Object&);
} kCrossFieldRules[] = {
    {"obs", check_histogram_buckets},
    {"fuzz", check_fingerprint},
    {"lint", check_replays},
    {"topology", check_topology_accounting},
    {"kernels", check_kernel_accounting},
};

/// Validate a Chrome trace-event JSON document (the --trace output of the
/// benches and acs-run): {"traceEvents": [...]} where every event carries
/// a string name/ph, integer pid/tid, and — except for "M" metadata — a
/// numeric ts; complete events ("X") also need a numeric dur.
std::string check_trace_schema(const Value& root, std::size_t& n_events) {
  const Object* top = root.object();
  if (top == nullptr) return "top level is not an object";
  if (std::string bad = find_nonfinite(root, ""); !bad.empty()) {
    return "non-finite numeric leaf '" + bad + "' (NaN/Inf)";
  }
  const Value* events = find(*top, "traceEvents");
  if (events == nullptr) return "missing key 'traceEvents'";
  const Array* list = events->array();
  if (list == nullptr) return "'traceEvents' is not an array";
  n_events = list->size();
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    const Object* event = (*list)[i].object();
    if (event == nullptr) return where + " is not an object";
    const Value* name = find(*event, "name");
    if (name == nullptr || !name->is_string()) {
      return where + " lacks string 'name'";
    }
    const Value* ph = find(*event, "ph");
    if (ph == nullptr || !ph->is_string()) return where + " lacks string 'ph'";
    const std::string& phase = std::get<std::string>(ph->data);
    for (const char* key : {"pid", "tid"}) {
      const Value* v = find(*event, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }
    if (phase == "M") continue;  // metadata events carry no timestamp
    const Value* ts = find(*event, "ts");
    if (ts == nullptr || !ts->is_number()) {
      return where + " lacks numeric 'ts'";
    }
    if (phase == "X") {
      const Value* dur = find(*event, "dur");
      if (dur == nullptr || !dur->is_number()) {
        return where + " (complete event) lacks numeric 'dur'";
      }
    }
  }
  return {};
}

/// Validate one trajectory file against the docs/bench-output.md schema.
/// Returns an empty string on success, else the reason.
std::string check_schema(const Value& root) {
  const Object* top = root.object();
  if (top == nullptr) return "top level is not an object";

  if (std::string bad = find_nonfinite(root, ""); !bad.empty()) {
    return "non-finite numeric leaf '" + bad + "' (NaN/Inf)";
  }

  const struct {
    const char* key;
    bool (Value::*check)() const;
    const char* type;
  } required[] = {
      {"bench", &Value::is_string, "string"},
      {"schema_version", &Value::is_number, "number"},
      {"threads", &Value::is_number, "number"},
      {"seed", &Value::is_number, "number"},
      {"smoke", &Value::is_bool, "bool"},
      {"wall_seconds", &Value::is_number, "number"},
  };
  for (const auto& field : required) {
    const Value* v = find(*top, field.key);
    if (v == nullptr) return std::string("missing key '") + field.key + "'";
    if (!(v->*(field.check))()) {
      return std::string("key '") + field.key + "' is not a " + field.type;
    }
  }

  if (std::string error = check_section_rules(*top); !error.empty()) {
    return error;
  }
  for (const auto& rule : kCrossFieldRules) {
    if (const Value* section = find(*top, rule.section)) {
      std::string error = rule.check(*section->object());
      if (!error.empty()) return error;
    }
  }

  const Value* metrics = find(*top, "metrics");
  if (metrics == nullptr) return "missing key 'metrics'";
  const Array* list = metrics->array();
  if (list == nullptr) return "'metrics' is not an array";
  for (std::size_t i = 0; i < list->size(); ++i) {
    const Object* metric = (*list)[i].object();
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (metric == nullptr) return where + " is not an object";
    for (const char* key : {"name", "units"}) {
      const Value* v = find(*metric, key);
      if (v == nullptr || !v->is_string()) {
        return where + " lacks string '" + key + "'";
      }
    }
    for (const char* key : {"value", "trials", "stddev"}) {
      const Value* v = find(*metric, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }
  }
  return {};
}

bool slurp(const char* path, std::string& out) {
  std::ifstream file(path, std::ios::in | std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

int check_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::string error;
  try {
    const Value root = Parser(body).parse();
    error = check_schema(root);
    if (error.empty()) {
      const std::size_t metric_count = root.object()
                                           ->find("metrics")
                                           ->second.array()
                                           ->size();
      std::printf("%s: ok (%zu metrics)\n", path, metric_count);
      return 0;
    }
  } catch (const std::exception& e) {
    error = std::string("JSON parse error: ") + e.what();
  }
  std::fprintf(stderr, "%s: %s\n", path, error.c_str());
  return 1;
}

int check_trace_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::string error;
  std::size_t n_events = 0;
  try {
    const Value root = Parser(body).parse();
    error = check_trace_schema(root, n_events);
    if (error.empty()) {
      std::printf("%s: ok (%zu trace events)\n", path, n_events);
      return 0;
    }
  } catch (const std::exception& e) {
    error = std::string("JSON parse error: ") + e.what();
  }
  std::fprintf(stderr, "%s: %s\n", path, error.c_str());
  return 1;
}

/// Folded-stack profile: every non-empty line is "frame[;frame...] cycles"
/// with a non-empty stack and an unsigned integer sample count — exactly
/// what flamegraph.pl / speedscope accept.
int check_folded_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::istringstream lines(body);
  std::string line;
  std::size_t line_no = 0, n_stacks = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      std::fprintf(stderr, "%s:%zu: no 'stack cycles' separator\n", path,
                   line_no);
      return 1;
    }
    const std::string count = line.substr(space + 1);
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "%s:%zu: sample count '%s' is not an unsigned "
                   "integer\n",
                   path, line_no, count.c_str());
      return 1;
    }
    ++n_stacks;
  }
  std::printf("%s: ok (%zu folded stacks)\n", path, n_stacks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int (*check)(const char*) = check_file;
  int first = 1;
  if (argc >= 2 && std::strcmp(argv[1], "--trace-file") == 0) {
    check = check_trace_file;
    first = 2;
  } else if (argc >= 2 && std::strcmp(argv[1], "--folded-file") == 0) {
    check = check_folded_file;
    first = 2;
  }
  if (first >= argc) {
    std::fprintf(stderr,
                 "usage: bench_json_check [--trace-file|--folded-file] "
                 "PATH [PATH...]\n");
    return 2;
  }
  int rc = 0;
  for (int i = first; i < argc; ++i) rc |= check(argv[i]);
  return rc;
}
