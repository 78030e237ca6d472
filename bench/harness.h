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

/// Fault-injection campaign totals, emitted as the "faults" section of the
/// JSON trajectory (see docs/bench-output.md). Integer counters aggregated
/// in fixed trial order — bitwise identical for every --threads value.
struct FaultSection {
  std::map<std::string, u64> injected;  ///< delivered, by inject kind name
  std::map<std::string, u64> crashes;   ///< worker crashes, by sim fault name
  u64 restarts = 0;
  u64 guess_attempts = 0;
  u64 guess_successes = 0;
  u64 backoff_cycles = 0;
};

/// Fuzzing campaign totals, emitted as the "fuzz" section of the JSON
/// trajectory (see docs/bench-output.md). The coverage fingerprint is the
/// order-independent digest of the final feature map — identical for every
/// --threads value under a fixed candidate budget, which is exactly the
/// determinism claim the ctest pins.
struct FuzzSection {
  u64 candidates = 0;        ///< candidates evaluated (incl. discarded)
  u64 viable = 0;            ///< candidates at least one oracle applied to
  u64 executions = 0;        ///< machine runs across all oracles
  u64 rounds = 0;
  u64 corpus_size = 0;       ///< entries kept by the coverage scheduler
  u64 features_covered = 0;  ///< distinct features in the final map
  u64 coverage_fingerprint = 0;  ///< FeatureMap::fingerprint(), hex in JSON
  std::map<std::string, u64> findings_by_oracle;  ///< oracle name -> count
};

/// Static-verifier totals, emitted as the "lint" section of the JSON
/// trajectory (see docs/bench-output.md). Everything is a pure function of
/// (workload set, scheme set): integer counters in fixed iteration order,
/// bitwise identical for every --threads value. Replay counters stay zero
/// unless the run replayed witnesses (acs-lint --replay).
struct LintSection {
  u64 programs = 0;             ///< (scheme, workload) pairs verified
  u64 functions_verified = 0;
  u64 diagnostics = 0;
  u64 witnesses = 0;            ///< attack witnesses synthesized
  u64 replays_confirmed = 0;    ///< witness replays per verdict
  u64 replays_refuted = 0;
  u64 replays_unconfirmed = 0;
  std::map<std::string, u64> findings_by_code;      ///< "ACS001" -> count
  std::map<std::string, u64> findings_by_function;  ///< function -> count
};

/// One configuration's end-to-end latency summary: integer simulated
/// cycles extracted from an obs::LogHistogram (docs/observability.md
/// "Latency histograms") — deterministic for every --threads value.
struct LatencySummary {
  u64 p50 = 0;
  u64 p90 = 0;
  u64 p99 = 0;
  u64 p999 = 0;
  u64 max = 0;
  u64 count = 0;  ///< completed requests behind the percentiles
};

/// One topology sweep configuration's outcome (bench_serving_tail,
/// bench_serving_topology): terminal accounting, storm-phase goodput, and
/// the end-to-end latency summary. The phase split is the metastability
/// probe — post-storm goodput staying collapsed after the storm window
/// closes is the failure mode the mitigation arms exist to prevent.
struct TopologyEntry {
  u64 requests = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 failed = 0;
  u64 goodput = 0;          ///< completions within deadline
  u64 deadline_missed = 0;
  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 breaker_trips = 0;
  u64 pre_storm_arrivals = 0;
  u64 pre_storm_goodput = 0;
  u64 storm_arrivals = 0;
  u64 storm_goodput = 0;
  u64 post_storm_arrivals = 0;
  u64 post_storm_goodput = 0;
  LatencySummary latency;
};

/// Topology-engine totals, emitted as the "topology" section of the JSON
/// trajectory (see docs/bench-output.md). Counters are summed over every
/// configuration in the sweep; `configs` carries one TopologyEntry per
/// configuration tag (e.g. "pacstack_load90_s8000_breaker-shed"). All
/// integers in fixed sweep order — bitwise identical for every --threads
/// value (pinned by the bench_serving_invariance and
/// bench_topology_invariance ctest targets).
struct TopologySection {
  u64 requests = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 failed = 0;
  u64 goodput = 0;
  u64 deadline_missed = 0;
  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 retry_budget_denied = 0;
  u64 hedges = 0;
  u64 breaker_trips = 0;
  u64 breaker_probes = 0;
  u64 forks = 0;
  u64 cow_pages_copied = 0;
  u64 backoff_cycles = 0;
  u64 gauge_samples = 0;
  std::map<std::string, u64> drops;  ///< terminal cause -> count, summed
  std::map<std::string, TopologyEntry> configs;  ///< config tag -> outcome

  /// Sum one run_topology_simulation result into the totals and file its
  /// entry under `tag`.
  void add(const std::string& tag, const workload::TopologyResult& result);
};

/// One (kernel point, scheme) measurement of the synthetic-kernel sweep
/// (bench_kernel_sweep, docs/synthetic-kernels.md): simulated cycle /
/// instruction totals plus the per-call and per-op attribution derived
/// from the obs counters of the same run. The doubles are ratios of
/// deterministic integers, so the section is bitwise identical for every
/// --threads value.
struct KernelEntry {
  u64 functions = 0;        ///< functions in the generated IR
  u64 static_calls = 0;     ///< static call sites (direct+indirect+slot)
  u64 static_depth = 0;     ///< longest static call chain
  u64 cycles = 0;           ///< simulated cycles to clean exit
  u64 instructions = 0;     ///< instructions retired
  u64 calls = 0;            ///< dynamic calls (sim.call.depth total)
  u64 pa_instructions = 0;  ///< retired PA-class instructions
  u64 chain_pushes = 0;     ///< authenticated-chain pushes (PACStack only)
  double overhead_percent = 0;  ///< cycles vs the kNone run, same kernel
  double cycles_per_call = 0;
  double cycles_per_instruction = 0;
};

/// Synthetic-kernel overhead surface, emitted as the "kernels" section of
/// the JSON trajectory (see docs/bench-output.md). `entries` is keyed
/// "<family>/<point>/<scheme>"; totals are summed in fixed sweep order —
/// bitwise identical for every --threads value (pinned by the
/// bench_kernels_invariance ctest target).
struct KernelsSection {
  u64 kernels = 0;  ///< distinct (family, point) kernels measured
  u64 schemes = 0;
  u64 runs = 0;     ///< machine runs behind the entries
  u64 total_cycles = 0;
  u64 total_instructions = 0;
  std::map<std::string, KernelEntry> entries;
};

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

  /// Attach the fault-injection campaign totals (emitted as the "faults"
  /// section of the JSON trajectory).
  void set_fault_section(FaultSection faults);

  /// Attach the fuzzing campaign totals (emitted as the "fuzz" section of
  /// the JSON trajectory).
  void set_fuzz_section(FuzzSection fuzz);

  /// Attach the static-verifier totals (emitted as the "lint" section of
  /// the JSON trajectory).
  void set_lint_section(LintSection lint);

  /// Attach the topology-engine totals (emitted as the "topology" section
  /// of the JSON trajectory).
  void set_topology_section(TopologySection topology);

  /// Attach the synthetic-kernel overhead surface (emitted as the
  /// "kernels" section of the JSON trajectory).
  void set_kernels_section(KernelsSection kernels);

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
  FaultSection fault_section_;
  bool has_fault_section_ = false;
  FuzzSection fuzz_section_;
  bool has_fuzz_section_ = false;
  LintSection lint_section_;
  bool has_lint_section_ = false;
  TopologySection topology_section_;
  bool has_topology_section_ = false;
  KernelsSection kernels_section_;
  bool has_kernels_section_ = false;
  long long start_ns_;
  bool finished_ = false;
};

/// Serialise a trajectory to the docs/bench-output.md JSON schema.
/// Exposed separately so tests can check the encoding without touching the
/// filesystem. `obs_metrics` (may be nullptr) adds the "obs" section;
/// `faults` (may be nullptr) adds the "faults" section; `fuzz` (may be
/// nullptr) adds the "fuzz" section; `lint` (may be nullptr) adds the
/// "lint" section; `topology` and `kernels` (may be nullptr) add their
/// sections likewise.
[[nodiscard]] std::string to_json(const std::string& bench_name,
                                  const BenchOptions& options, u64 base_seed,
                                  const std::vector<Metric>& metrics,
                                  double wall_seconds,
                                  const obs::Metrics* obs_metrics = nullptr,
                                  const FaultSection* faults = nullptr,
                                  const FuzzSection* fuzz = nullptr,
                                  const LintSection* lint = nullptr,
                                  const TopologySection* topology = nullptr,
                                  const KernelsSection* kernels = nullptr);

/// Write `body` to `path` (truncating); on failure prints to stderr and
/// returns false. Used for the --json/--trace/--profile sinks.
bool write_file(const std::string& path, const std::string& body,
                const std::string& context);

}  // namespace acs::bench
