// Supervised crash-and-restart worker fleet (the pre-fork server model).
//
// The paper's NGINX setting is a master process supervising a pool of
// worker processes: a wrong PAC guess crashes a worker, and the master
// restarts it (Section 4.3). Whether the replacement worker runs with the
// *same* PA keys (fork semantics — Section 6.1's setting, where an
// adversary accumulates information across crashes) or with *fresh* keys
// (exec/rekey-on-restart, which resets the guessing game every attempt)
// is the security-policy distinction this module makes measurable.
//
// run_worker_fleet drives repeats × workers independent worker "slots"
// through the deterministic fault-injection engine (src/inject) under an
// explicit restart policy. A crashed attempt costs availability — its
// cycles plus exponential supervisor backoff are charged to the slot's
// wall clock while contributing zero completed requests — unless the
// policy is the default fail-fast, which aborts the campaign instead.
// Table 3 (bench_table3_nginx) is this engine run fault-free under
// fail-fast: a crash there means the TPS estimate is unsalvageable.
// Every slot derives all randomness from exec::trial_seed, so TPS-under-
// fault, restart counts, and adversary guess outcomes are bitwise
// identical for any --threads value.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "compiler/scheme.h"
#include "inject/plan.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "workload/backoff.h"

namespace acs::workload {

enum class RestartMode : u8 {
  /// A crashed worker aborts the whole campaign (std::runtime_error) —
  /// the explicit default: a crashed worker must never contribute to a
  /// TPS estimate.
  kFailFast,
  /// Crashed workers are re-forked with the master's PA keys *inherited*
  /// (Section 6.1: guesses accumulate across generations).
  kRestartInherit,
  /// Crashed workers are re-exec'd with *fresh* PA keys (rekey-on-restart:
  /// each generation re-randomises the guessing game).
  kRestartRekey,
};

[[nodiscard]] const char* restart_mode_name(RestartMode mode) noexcept;

struct RestartPolicy {
  RestartMode mode = RestartMode::kFailFast;
  /// Maximum restarts per slot; a slot exhausting them is marked failed
  /// (degraded availability) rather than aborting the campaign.
  unsigned max_restarts = 3;
  /// Supervisor backoff before restart r (1-based) in simulated cycles:
  /// backoff_initial_cycles * backoff_multiplier^(r-1), saturating at
  /// backoff_cap_cycles (workload/backoff.h) so absurd ladders cannot
  /// wrap the wall-clock accumulators.
  u64 backoff_initial_cycles = 50'000;
  unsigned backoff_multiplier = 2;
  u64 backoff_cap_cycles = kDefaultBackoffCapCycles;
};

struct FleetConfig {
  unsigned workers = 4;
  u64 requests_per_worker = 100;
  unsigned repeats = 1;  ///< independent fleet runs for the sigma column
  u64 seed = 42;
  unsigned threads = 1;  ///< host threads (0 = all); never changes results
  /// Per-attempt instruction watchdog: an attempt still running past this
  /// is a "hang" crash (injected skips can derail loops without faulting).
  u64 attempt_instr_budget = 20'000'000;
  RestartPolicy policy;

  // --- fault injection (see docs/fault-injection.md) --------------------
  /// Mean injected faults per million instructions (0 = no random plan).
  double faults_per_million = 0;
  /// Kinds the random plan draws from; empty = all six kinds.
  std::vector<inject::FaultKind> fault_kinds;
  /// When non-zero, arm the targeted Section 6.1 guessing adversary: one
  /// kChainCorrupt guess per attempt against a `guess_window`-bit window
  /// of CR's PAC field, at a fixed per-slot program point. Guess values
  /// enumerate the window sequentially across a slot's attempts, so under
  /// kRestartInherit (same keys, same execution) the adversary samples
  /// without replacement, while kRestartRekey re-randomises the target
  /// each generation.
  unsigned guess_window = 0;

  // --- observability (see docs/observability.md) ------------------------
  bool collect_metrics = false;
  bool collect_profile = false;
  bool trace_first_trial = false;  ///< trace slot 0 only
  std::size_t trace_ring_capacity = 1 << 15;
};

struct FleetResult {
  double requests_per_second = 0;  ///< mean TPS-under-fault across repeats
  double stddev = 0;
  u64 completed_requests = 0;
  u64 expected_requests = 0;
  u64 restarts = 0;      ///< supervisor restarts across all slots
  u64 failed_slots = 0;  ///< slots that exhausted max_restarts
  u64 total_slots = 0;
  u64 backoff_cycles = 0;
  /// Delivered injected faults by inject::fault_kind_name.
  std::map<std::string, u64> injected;
  /// Worker crashes by sim::fault_name (plus "hang" for watchdog kills).
  std::map<std::string, u64> crashes;
  u64 guess_attempts = 0;
  u64 guess_successes = 0;

  [[nodiscard]] double availability() const noexcept {
    return expected_requests == 0
               ? 1.0
               : static_cast<double>(completed_requests) /
                     static_cast<double>(expected_requests);
  }
  [[nodiscard]] double guess_success_rate() const noexcept {
    return guess_attempts == 0
               ? 0.0
               : static_cast<double>(guess_successes) /
                     static_cast<double>(guess_attempts);
  }
};

/// Observability output of one fleet run. Metrics and profile are merged
/// over all slots in slot order, so they are bitwise identical for every
/// `threads` value; the trace covers slot 0 only.
struct NginxObs {
  obs::Metrics metrics;
  obs::FoldedProfile profile;
  std::string trace_json;  ///< Chrome trace-event JSON (empty if not traced)
};

/// Run the supervised fleet for one scheme. Under kFailFast any crash
/// throws std::runtime_error (with pid, scheme, and fault name); the
/// restart modes degrade instead. `out_obs` collects the observability
/// dimensions enabled in `config`, merged in slot order.
[[nodiscard]] FleetResult run_worker_fleet(compiler::Scheme scheme,
                                           const FleetConfig& config,
                                           NginxObs* out_obs = nullptr);

}  // namespace acs::workload
