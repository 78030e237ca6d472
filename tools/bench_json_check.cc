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

/// Validate the optional "obs" section (src/obs metrics registry dump):
/// {"counters": {name: number}, "histograms": {name: {"edges": [...],
/// "counts": [...]}}} with counts one longer than edges (overflow bucket).
std::string check_obs_section(const Value& obs) {
  const Object* top = obs.object();
  if (top == nullptr) return "'obs' is not an object";

  const Value* counters = find(*top, "counters");
  if (counters == nullptr || counters->object() == nullptr) {
    return "'obs.counters' missing or not an object";
  }
  for (const auto& [name, value] : *counters->object()) {
    if (!value.is_number()) {
      return "'obs.counters." + name + "' is not a number";
    }
  }

  const Value* histograms = find(*top, "histograms");
  if (histograms == nullptr || histograms->object() == nullptr) {
    return "'obs.histograms' missing or not an object";
  }
  for (const auto& [name, value] : *histograms->object()) {
    const std::string where = "'obs.histograms." + name + "'";
    const Object* hist = value.object();
    if (hist == nullptr) return where + " is not an object";
    std::size_t n_edges = 0, n_counts = 0;
    if (!numeric_array(find(*hist, "edges"), n_edges)) {
      return where + " lacks numeric array 'edges'";
    }
    if (!numeric_array(find(*hist, "counts"), n_counts)) {
      return where + " lacks numeric array 'counts'";
    }
    if (n_counts != n_edges + 1) {
      return where + " counts/edges size mismatch (want edges+1 buckets)";
    }
  }
  return {};
}

/// Validate the optional "faults" section (fault-injection campaign
/// totals, see docs/bench-output.md): {"injected": {kind: number},
/// "crashes": {cause: number}, "restarts": number, "guess_attempts":
/// number, "guess_successes": number, "backoff_cycles": number}.
std::string check_faults_section(const Value& faults) {
  const Object* top = faults.object();
  if (top == nullptr) return "'faults' is not an object";

  for (const char* key : {"injected", "crashes"}) {
    const Value* counters = find(*top, key);
    if (counters == nullptr || counters->object() == nullptr) {
      return std::string("'faults.") + key + "' missing or not an object";
    }
    for (const auto& [name, value] : *counters->object()) {
      if (!value.is_number()) {
        return std::string("'faults.") + key + "." + name +
               "' is not a number";
      }
    }
  }

  for (const char* key :
       {"restarts", "guess_attempts", "guess_successes", "backoff_cycles"}) {
    const Value* v = find(*top, key);
    if (v == nullptr || !v->is_number()) {
      return std::string("'faults.") + key + "' missing or not a number";
    }
  }
  return {};
}

/// Validate the optional "fuzz" section (fuzzing campaign totals, see
/// docs/bench-output.md): numeric counters, a hex-string
/// "coverage_fingerprint", and a {oracle: number} "findings" map.
std::string check_fuzz_section(const Value& fuzz) {
  const Object* top = fuzz.object();
  if (top == nullptr) return "'fuzz' is not an object";

  for (const char* key : {"candidates", "viable", "executions", "rounds",
                          "corpus_size", "features_covered"}) {
    const Value* v = find(*top, key);
    if (v == nullptr || !v->is_number()) {
      return std::string("'fuzz.") + key + "' missing or not a number";
    }
  }

  const Value* fingerprint = find(*top, "coverage_fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string()) {
    return "'fuzz.coverage_fingerprint' missing or not a string";
  }
  const std::string& fp = std::get<std::string>(fingerprint->data);
  if (fp.size() != 18 || fp.compare(0, 2, "0x") != 0 ||
      fp.find_first_not_of("0123456789abcdef", 2) != std::string::npos) {
    return "'fuzz.coverage_fingerprint' is not an 0x-prefixed 64-bit hex "
           "string";
  }

  const Value* findings = find(*top, "findings");
  if (findings == nullptr || findings->object() == nullptr) {
    return "'fuzz.findings' missing or not an object";
  }
  for (const auto& [name, value] : *findings->object()) {
    if (!value.is_number()) {
      return "'fuzz.findings." + name + "' is not a number";
    }
  }
  return {};
}

/// Validate the optional "lint" section (static-verifier totals, see
/// docs/bench-output.md): numeric counters plus {code: number} /
/// {function: number} breakdown maps. Replayed witness verdicts must add
/// up to the witness count (every witness gets exactly one verdict) when
/// any replay counter is non-zero.
std::string check_lint_section(const Value& lint) {
  const Object* top = lint.object();
  if (top == nullptr) return "'lint' is not an object";

  for (const char* key :
       {"programs", "functions_verified", "diagnostics", "witnesses",
        "replays_confirmed", "replays_refuted", "replays_unconfirmed"}) {
    const Value* v = find(*top, key);
    if (v == nullptr || !v->is_number()) {
      return std::string("'lint.") + key + "' missing or not a number";
    }
  }

  const double witnesses = std::get<double>(find(*top, "witnesses")->data);
  const double replays =
      std::get<double>(find(*top, "replays_confirmed")->data) +
      std::get<double>(find(*top, "replays_refuted")->data) +
      std::get<double>(find(*top, "replays_unconfirmed")->data);
  if (replays != 0 && replays != witnesses) {
    return "'lint' replay verdicts do not cover every witness";
  }

  for (const char* key : {"findings_by_code", "findings_by_function"}) {
    const Value* counters = find(*top, key);
    if (counters == nullptr || counters->object() == nullptr) {
      return std::string("'lint.") + key + "' missing or not an object";
    }
    for (const auto& [name, value] : *counters->object()) {
      if (!value.is_number()) {
        return std::string("'lint.") + key + "." + name +
               "' is not a number";
      }
    }
  }
  return {};
}

/// Validate the optional "topology" section (topology-engine totals, see
/// docs/bench-output.md): numeric totals with the accounting
/// identities (completed + dropped + failed == requests; goodput +
/// deadline_missed == completed), a {cause: number} "drops" map, and a
/// {tag: entry} "configs" map whose entries carry per-phase goodput
/// (goodput <= arrivals per phase) and a monotone latency summary.
std::string check_topology_section(const Value& topology) {
  const Object* top = topology.object();
  if (top == nullptr) return "'topology' is not an object";

  for (const char* key :
       {"requests", "completed", "dropped", "failed", "goodput",
        "deadline_missed", "crashed_attempts", "retries",
        "retry_budget_denied", "hedges", "breaker_trips", "breaker_probes",
        "forks", "cow_pages_copied", "backoff_cycles", "gauge_samples"}) {
    const Value* v = find(*top, key);
    if (v == nullptr || !v->is_number()) {
      return std::string("'topology.") + key + "' missing or not a number";
    }
  }
  if (find(*top, "completed")->number() + find(*top, "dropped")->number() +
          find(*top, "failed")->number() !=
      find(*top, "requests")->number()) {
    return "'topology' terminal accounting broken "
           "(completed + dropped + failed != requests)";
  }
  if (find(*top, "goodput")->number() +
          find(*top, "deadline_missed")->number() !=
      find(*top, "completed")->number()) {
    return "'topology' goodput accounting broken "
           "(goodput + deadline_missed != completed)";
  }

  const Value* drops = find(*top, "drops");
  if (drops == nullptr || drops->object() == nullptr) {
    return "'topology.drops' missing or not an object";
  }
  double drop_sum = 0;
  for (const auto& [cause, value] : *drops->object()) {
    if (!value.is_number()) {
      return "'topology.drops." + cause + "' is not a number";
    }
    drop_sum += value.number();
  }
  if (drop_sum !=
      find(*top, "dropped")->number() + find(*top, "failed")->number()) {
    return "'topology.drops' causes do not sum to dropped + failed";
  }

  const Value* configs = find(*top, "configs");
  if (configs == nullptr || configs->object() == nullptr) {
    return "'topology.configs' missing or not an object";
  }
  for (const auto& [tag, value] : *configs->object()) {
    const std::string where = "'topology.configs." + tag + "'";
    const Object* entry = value.object();
    if (entry == nullptr) return where + " is not an object";
    for (const char* key :
         {"requests", "completed", "dropped", "failed", "goodput",
          "deadline_missed", "crashed_attempts", "retries",
          "breaker_trips"}) {
      const Value* v = find(*entry, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }

    const Value* phases = find(*entry, "phases");
    if (phases == nullptr || phases->object() == nullptr) {
      return where + " lacks object 'phases'";
    }
    for (const char* phase : {"pre_storm", "storm", "post_storm"}) {
      const Value* p = find(*phases->object(), phase);
      if (p == nullptr || p->object() == nullptr) {
        return where + " lacks phase object '" + phase + "'";
      }
      const Value* arrivals = find(*p->object(), "arrivals");
      const Value* goodput = find(*p->object(), "goodput");
      if (arrivals == nullptr || !arrivals->is_number() ||
          goodput == nullptr || !goodput->is_number()) {
        return where + " phase '" + phase +
               "' lacks numeric arrivals/goodput";
      }
      if (goodput->number() > arrivals->number()) {
        return where + " phase '" + phase + "' goodput exceeds arrivals";
      }
    }

    const Value* latency = find(*entry, "latency");
    if (latency == nullptr || latency->object() == nullptr) {
      return where + " lacks object 'latency'";
    }
    for (const char* key : {"p50", "p90", "p99", "p999", "max", "count"}) {
      const Value* v = find(*latency->object(), key);
      if (v == nullptr || !v->is_number()) {
        return where + " latency lacks numeric '" + key + "'";
      }
    }
    const Object& summary = *latency->object();
    const double p50 = find(summary, "p50")->number();
    const double p90 = find(summary, "p90")->number();
    const double p99 = find(summary, "p99")->number();
    const double p999 = find(summary, "p999")->number();
    const double max = find(summary, "max")->number();
    const double count = find(summary, "count")->number();
    if (count > 0 && !(p50 <= p90 && p90 <= p99 && p99 <= p999)) {
      return where + " latency percentiles are not monotone";
    }
    if (count > 0 && p999 > max + max / 32 + 1) {
      return where + " latency p999 exceeds max beyond bucket rounding";
    }
  }
  return {};
}

/// Validate the optional "kernels" section (synthetic-kernel overhead
/// surface, see docs/bench-output.md): numeric totals, and a {tag: entry}
/// "entries" map — keys "<family>/<point>/<scheme>" — whose entries carry
/// the cycle/instruction/call counts with consistent derived ratios
/// (cycles_per_instruction == cycles / instructions within rounding).
std::string check_kernels_section(const Value& kernels) {
  const Object* top = kernels.object();
  if (top == nullptr) return "'kernels' is not an object";

  for (const char* key : {"kernels", "schemes", "runs", "total_cycles",
                          "total_instructions"}) {
    const Value* v = find(*top, key);
    if (v == nullptr || !v->is_number()) {
      return std::string("'kernels.") + key + "' missing or not a number";
    }
  }

  const Value* entries = find(*top, "entries");
  if (entries == nullptr || entries->object() == nullptr) {
    return "'kernels.entries' missing or not an object";
  }
  const double expected_entries =
      find(*top, "kernels")->number() * find(*top, "schemes")->number();
  if (static_cast<double>(entries->object()->size()) != expected_entries) {
    return "'kernels.entries' size != kernels x schemes";
  }

  double cycle_sum = 0;
  for (const auto& [tag, value] : *entries->object()) {
    const std::string where = "'kernels.entries." + tag + "'";
    if (tag.find('/') == std::string::npos) {
      return where + " key is not <family>/<point>/<scheme>";
    }
    const Object* entry = value.object();
    if (entry == nullptr) return where + " is not an object";
    for (const char* key :
         {"functions", "static_calls", "static_depth", "cycles",
          "instructions", "calls", "pa_instructions", "chain_pushes",
          "overhead_percent", "cycles_per_call", "cycles_per_instruction"}) {
      const Value* v = find(*entry, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }
    const double cycles = find(*entry, "cycles")->number();
    const double instructions = find(*entry, "instructions")->number();
    const double calls = find(*entry, "calls")->number();
    if (instructions > cycles) {
      return where + " instructions exceed cycles (costs are >= 1/instr)";
    }
    if (calls > instructions) {
      return where + " dynamic calls exceed retired instructions";
    }
    const double cpi = find(*entry, "cycles_per_instruction")->number();
    if (instructions > 0 && std::fabs(cpi - cycles / instructions) > 1e-9) {
      return where + " cycles_per_instruction != cycles / instructions";
    }
    cycle_sum += cycles;
  }
  if (cycle_sum != find(*top, "total_cycles")->number()) {
    return "'kernels.total_cycles' does not sum the entries";
  }
  return {};
}

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

  if (const Value* obs = find(*top, "obs")) {
    std::string error = check_obs_section(*obs);
    if (!error.empty()) return error;
  }

  if (const Value* faults = find(*top, "faults")) {
    std::string error = check_faults_section(*faults);
    if (!error.empty()) return error;
  }

  if (const Value* fuzz = find(*top, "fuzz")) {
    std::string error = check_fuzz_section(*fuzz);
    if (!error.empty()) return error;
  }

  if (const Value* lint = find(*top, "lint")) {
    std::string error = check_lint_section(*lint);
    if (!error.empty()) return error;
  }

  if (const Value* topology = find(*top, "topology")) {
    std::string error = check_topology_section(*topology);
    if (!error.empty()) return error;
  }

  if (const Value* kernels = find(*top, "kernels")) {
    std::string error = check_kernels_section(*kernels);
    if (!error.empty()) return error;
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
