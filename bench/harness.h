// Shared harness for the bench binaries: uniform flag parsing and
// machine-readable output.
//
// Every bench accepts the same flags:
//   --threads=N   host threads for trial-parallel campaigns
//                 (0 = all hardware threads; default 1 — results are
//                 bitwise identical for every value, see exec/parallel.h)
//   --json=PATH   additionally write a BENCH_<name>.json-style trajectory
//                 (schema: docs/bench-output.md)
//   --smoke       shrink trial counts to CI-smoke size (seconds, not
//                 minutes); used by the bench_smoke ctest targets
//   --help        usage
//
// Benches built on the observability layer (src/obs) additionally accept
// (parse_bench_args(..., /*obs_flags=*/true)):
//   --trace=PATH    write a Chrome trace-event JSON file (Perfetto-loadable)
//   --profile=PATH  write a folded-stack (flamegraph) cycle profile
// An obs flag given to a bench without obs support is an error (exit 2) —
// flags that silently do nothing are how stale numbers get published.
//
// The human-readable tables keep printing exactly as before; the JSON file
// is an *additional* sink fed through BenchReporter::record.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace acs::workload {
struct TopologyResult;
}  // namespace acs::workload

namespace acs::bench {

struct BenchOptions {
  unsigned threads = 1;      ///< 0 = all hardware threads
  std::string json_path;     ///< empty = no JSON output
  bool smoke = false;        ///< tiny trial counts for smoke runs
  std::string trace_path;    ///< empty = no event trace (--trace)
  std::string profile_path;  ///< empty = no folded profile (--profile)
};

/// Parse the uniform bench flags. Prints usage and exits(0) on --help;
/// prints an error and exits(2) on an unknown flag or malformed value.
/// `extra_usage` (optional) is appended to the usage text for binaries
/// with additional flags of their own. `obs_flags` enables --trace /
/// --profile; benches that cannot honour them reject them loudly instead
/// of accepting and ignoring.
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv,
                                            const char* bench_name,
                                            const char* extra_usage = nullptr,
                                            bool obs_flags = false);

/// One recorded metric of a campaign.
struct Metric {
  std::string name;    ///< e.g. "fresh_key_mean_guesses_b8"
  double value = 0;
  std::string units;   ///< e.g. "guesses", "req/s", "probability"
  u64 trials = 0;      ///< Monte-Carlo trials behind the value (0 = n/a)
  double stddev = 0;   ///< sample stddev across trials (0 = n/a)
};

/// An ordered JSON object: one section of a trajectory (see
/// docs/bench-output.md), built where its data lives. Keys print in
/// insertion order, integers exactly, doubles with %.17g and strings
/// escaped, so a section built in a fixed order from deterministic values
/// is bitwise identical for every --threads value. Keys must be unique.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, u64 value);
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, JsonObject value);

  /// A keyed table becomes an object in the map's (sorted) key order:
  /// counter maps (T = u64) and per-configuration entries (T = JsonObject).
  template <typename T>
  JsonObject& add(const std::string& key,
                  const std::map<std::string, T>& table) {
    JsonObject object;
    for (const auto& [name, value] : table) object.add(name, value);
    return add(key, std::move(object));
  }

  /// Serialise; nested lines are indented relative to `indent` spaces.
  /// An object without nested objects prints on one line.
  [[nodiscard]] std::string to_json(int indent = 0) const;

 private:
  struct Field {
    std::string key;
    std::string scalar;         ///< rendered value; empty for an object
    std::vector<Field> object;  ///< members when `scalar` is empty
  };
  static std::string render(const std::vector<Field>& fields, int indent);

  std::vector<Field> fields_;
};

/// The "topology" section of the serving benches (bench_serving_tail,
/// bench_serving_topology): totals summed over the sweep, plus one entry
/// per configuration tag with its terminal accounting, storm-phase goodput
/// and end-to-end latency summary.
[[nodiscard]] JsonObject topology_section(
    const std::vector<std::pair<std::string, workload::TopologyResult>>&
        sweep);

/// Collects metrics during a bench run and writes the machine-readable
/// trajectory on finish(). Wall-clock time is measured from construction
/// to finish(). Table/stdout output is unaffected: record() only feeds the
/// JSON sink.
class BenchReporter {
 public:
  /// `base_seed` is the campaign's primary seed constant, recorded so a
  /// trajectory identifies its RNG universe.
  BenchReporter(std::string bench_name, BenchOptions options, u64 base_seed);

  void record(std::string name, double value, std::string units,
              u64 trials = 0, double stddev = 0);

  /// Attach the aggregated observability metrics (emitted as the "obs"
  /// section of the JSON trajectory; see docs/bench-output.md).
  void set_obs_metrics(obs::Metrics metrics);

  /// Attach a named section of the JSON trajectory ("faults", "fuzz",
  /// "lint", "topology", "kernels"), emitted after "obs" in the order first
  /// set; setting a name again replaces its object.
  void set_section(const std::string& name, JsonObject section);

  /// Write the JSON file if --json was given. Returns false (after
  /// printing to stderr) if the file cannot be written. Idempotent.
  bool finish();

  [[nodiscard]] const BenchOptions& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::string bench_name_;
  BenchOptions options_;
  u64 base_seed_;
  std::vector<Metric> metrics_;
  obs::Metrics obs_metrics_;
  bool has_obs_metrics_ = false;
  std::vector<std::pair<std::string, JsonObject>> sections_;
  long long start_ns_;
  bool finished_ = false;
};

/// Serialise a trajectory to the docs/bench-output.md JSON schema.
/// Exposed separately so tests can check the encoding without touching the
/// filesystem. `obs_metrics` (may be nullptr) adds the "obs" section;
/// `sections` follow it in order.
[[nodiscard]] std::string to_json(
    const std::string& bench_name, const BenchOptions& options, u64 base_seed,
    const std::vector<Metric>& metrics, double wall_seconds,
    const obs::Metrics* obs_metrics = nullptr,
    const std::vector<std::pair<std::string, JsonObject>>& sections = {});

/// Write `body` to `path` (truncating); on failure prints to stderr and
/// returns false. Used for the --json/--trace/--profile sinks.
bool write_file(const std::string& path, const std::string& body,
                const std::string& context);

}  // namespace acs::bench
