// Multi-tier serving topology: load balancer -> worker pools, with
// deadlines, retry budgets, circuit breakers, and graceful overload
// degradation (ROADMAP item 2's "multi-tier" follow-on).
//
// The one engine for every fork-per-request workload: a one-tier,
// one-pool configuration is the single-station serving model
// (bench_serving_tail's tail latency under baseline faults); more tiers
// show how PA-induced crash churn *compounds* across a request path. A
// request traverses `tiers` tiers in sequence (frontend -> backend). At each tier a load balancer routes it to one of
// `pools_per_tier` worker pools — each a pool of `workers_per_pool`
// CoW-forked kernel::Machine slots with its own bounded queue — picking
// the admitting pool with the fewest outstanding requests (ties to the
// lowest index, so routing is deterministic).
//
// Robustness machinery, all per pool and all off by default (the
// unmitigated configuration is the control arm of every experiment):
//   * Deadlines: each request carries an end-to-end deadline from arrival;
//     completions past it count as deadline misses, not goodput. With
//     `drop_expired`, queued work already past its deadline is dropped at
//     dispatch instead of burning a worker on a response nobody waits for.
//   * Retry budgets: crashed attempts retry with saturating exponential
//     backoff (workload/backoff.h), but only while the crashing pool's
//     token bucket has a retry token — the bucket earns
//     `retry_budget_permille`/1000 tokens per fresh admission, so retries
//     are bounded to a fraction of real traffic and cannot storm.
//   * Hedging: a request still queued `hedge_after_cycles` after arriving
//     at a tier enqueues one duplicate on a second pool; first completion
//     wins, the loser is cancelled at dispatch.
//   * Circuit breakers: a sliding window of attempt outcomes per pool;
//     when the crash fraction reaches `breaker_trip_permille` the pool
//     stops admitting for `breaker_cooldown_cycles`, then half-opens and
//     admits a single probe — success closes the breaker, another crash
//     re-opens it.
//   * Load shedding: past a queue-fill threshold, low-priority arrivals
//     are dropped; past a deeper threshold the queue switches from FIFO
//     to LIFO so fresh requests (which can still meet their deadlines)
//     are served before stale backlog.
//
// Fault storms: `storm_faults_per_million` applies a correlated burst
// plan (inject::PlanConfig burst fields) to every attempt that starts on
// the stormed (tier, pool) inside the storm window — one pool melting
// down for a while, the scenario breakers and shedding exist for. The
// headline experiment this module pins: an unmitigated retry storm goes
// *metastable* (post-storm goodput stays collapsed because the backlog of
// stale work never drains ahead of fresh arrivals), while retry-budget +
// breaker + shedding recovers within the same trace.
//
// Clean-outcome reuse: an attempt no fault can reach (not stormed, and
// `faults_per_million` == 0) is not simulated. With no fault delivered,
// fresh keys change an attempt's PAC bits but never its control flow — a
// correctly signed return address always authenticates (PACStack's
// correctness property) — so its outcome is its class's clean outcome,
// which calibration computes. Calibration runs two clean forks per class
// under distinct key seeds and throws std::runtime_error if their cycles,
// instruction counts, CoW pages or exit status differ
// (tests/workload/key_independence_test.cc sweeps the same property over
// every scheme). Every attempt a fault can reach is simulated.
//
// Determinism: every attempt's machine outcome is a pure function of
// (request seed, tier, attempt slot, stormed). Stage 1 draws each
// request's class, priority and slot salt sequentially. Stage 2 is a
// sequential integer event-driven simulation over a (time, seq)-ordered
// queue that simulates each attempt a fault can reach on first dispatch
// and memoizes it. The engine runs on one host thread, so every output,
// including per-phase goodput and all percentile trajectories, is the
// same for any --threads value.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "compiler/scheme.h"
#include "inject/plan.h"
#include "obs/loghist.h"
#include "obs/metrics.h"
#include "workload/backoff.h"

namespace acs::workload {

/// The mitigation arms of the storm sweep (bench_serving_topology).
enum class Mitigation : u8 {
  kNone = 0,      ///< no budget, no breaker, no shedding — the control
  kRetryBudget,   ///< retry budget only
  kBreakerShed,   ///< retry budget + circuit breaker + shedding + deadlines
};

[[nodiscard]] const char* mitigation_name(Mitigation mitigation) noexcept;

struct TopologyConfig {
  unsigned tiers = 2;           ///< request path length (frontend->backend)
  unsigned pools_per_tier = 3;  ///< pools the per-tier LB routes over
  unsigned workers_per_pool = 2;
  u64 queue_capacity = 64;      ///< per pool; a full queue rejects
  u64 requests = 200;           ///< open-loop arrivals
  /// Offered load as a percentage of one tier's calibrated capacity
  /// (every request visits every tier, so a single tier is the
  /// bottleneck).
  unsigned load_percent = 90;
  /// Fraction of arrivals tagged low priority (sheddable) per mille.
  unsigned low_priority_permille = 400;

  /// End-to-end deadline: deadline_mean_multiple x tiers x mean service
  /// cycles, or `deadline_cycles` verbatim when non-zero.
  unsigned deadline_mean_multiple = 8;
  u64 deadline_cycles = 0;

  // --- retries ---------------------------------------------------------
  unsigned max_restarts = 2;  ///< per (request, tier); then the tier fails
  u64 backoff_initial_cycles = 2'000;
  unsigned backoff_multiplier = 2;
  u64 backoff_cap_cycles = kDefaultBackoffCapCycles;
  bool retry_budget_enabled = false;
  /// Milli-tokens earned per fresh admission; a retry costs 1000.
  unsigned retry_budget_permille = 100;
  u64 retry_budget_burst = 4'000;  ///< token-bucket cap, in milli-tokens
  /// Hedge a request still queued this long after reaching a tier
  /// (0 = no hedging).
  u64 hedge_after_cycles = 0;

  // --- circuit breaker -------------------------------------------------
  bool breaker_enabled = false;
  unsigned breaker_window = 16;          ///< outcomes in the sliding window
  unsigned breaker_trip_permille = 500;  ///< crash fraction that trips
  u64 breaker_cooldown_cycles = 0;       ///< 0 = auto: 4 x mean service

  // --- load shedding ---------------------------------------------------
  bool shed_enabled = false;
  /// Queue fill (per mille of queue_capacity) past which low-priority
  /// arrivals are shed, and past which dispatch goes LIFO.
  unsigned shed_queue_permille = 500;
  unsigned lifo_queue_permille = 750;
  bool drop_expired = false;  ///< drop queued entries past their deadline

  // --- faults and the storm -------------------------------------------
  /// Baseline faults per million instructions on every attempt (0 = none).
  double faults_per_million = 0;
  /// Storm intensity on the stormed pool inside the window (0 = no storm).
  double storm_faults_per_million = 0;
  unsigned storm_tier = 0;
  unsigned storm_pool = 0;
  /// Storm window as arrival-index per-mille: the storm spans the arrival
  /// times of requests [requests*begin/1000, requests*end/1000).
  unsigned storm_begin_permille = 300;
  unsigned storm_end_permille = 500;
  std::vector<inject::FaultKind> fault_kinds;  ///< empty = all six

  u64 attempt_instr_budget = 400'000;  ///< per-attempt hang watchdog
  /// Worker-occupancy cost of a *hang* (an attempt killed by the
  /// instruction-budget watchdog — kBudgetExhaust faults, or a genuine
  /// runaway hitting attempt_instr_budget): the supervisor only notices a
  /// hung attempt when its watchdog fires, so the worker is held this
  /// long regardless of when the machine internally died. 0 = auto:
  /// 6 x calibrated mean service cycles. Clean crashes (auth failure,
  /// wild access) are detected immediately and cost only their cycles.
  u64 hang_timeout_cycles = 0;
  u64 gauge_cadence_cycles = 50'000;
  u64 seed = 42;
  /// Host threads. Inert: the engine is sequential. Kept because callers
  /// (benches, perfbench) still set it.
  unsigned threads = 1;

  // --- observability (see docs/observability.md) ------------------------
  bool collect_metrics = false;
  bool trace = false;  ///< per-tier span/gauge timeline
  std::size_t trace_ring_capacity = 1 << 16;
};

/// Switch the mitigation knobs (and only those) to one sweep arm.
void apply_mitigation(TopologyConfig& config, Mitigation mitigation);

/// Per-tier accounting. `latency` is tier residence (tier success time −
/// tier arrival) of requests that cleared the tier.
struct TierStats {
  u64 dispatched = 0;  ///< attempts started (incl. retries and hedges)
  u64 completed = 0;   ///< requests that cleared this tier
  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 retry_budget_denied = 0;
  u64 hedges = 0;
  u64 breaker_trips = 0;
  u64 breaker_probes = 0;
  u64 backoff_cycles = 0;
  u64 queue_depth_max = 0;  ///< summed over the tier's pools, exact
  obs::LogHistogram latency;
  obs::LogHistogram queue_wait;
};

/// Arrival-phase accounting relative to the storm window: `goodput` is
/// completions within deadline among requests that *arrived* in the
/// phase. Post-storm goodput staying collapsed after the storm ends is
/// the metastability signature.
struct PhaseStats {
  u64 arrivals = 0;
  u64 completed = 0;
  u64 goodput = 0;
};

struct TopologyResult {
  u64 requests = 0;
  u64 completed = 0;  ///< cleared every tier
  u64 dropped = 0;    ///< queue-full + shed + breaker-open + expired
  u64 failed = 0;     ///< retry exhaustion or retry-budget denial
  u64 goodput = 0;    ///< completions within deadline
  u64 deadline_missed = 0;  ///< completed − goodput

  u64 crashed_attempts = 0;
  u64 retries = 0;
  u64 retry_budget_denied = 0;
  u64 hedges = 0;
  u64 breaker_trips = 0;
  u64 breaker_probes = 0;
  u64 forks = 0;  ///< CoW machines dispatched (one per started attempt)
  /// Machines the engine ran: calibration's two forks per class plus the
  /// attempts it simulated (those a fault can reach). Fault-free attempts
  /// reuse their class's clean outcome and are not counted. Not emitted
  /// as a metric.
  u64 attempts_simulated = 0;
  u64 cow_pages_copied = 0;
  u64 backoff_cycles = 0;

  /// Terminal drop/fail causes; values sum to dropped + failed.
  /// Keys: "queue-full", "shed-low-priority", "breaker-open", "expired",
  /// "retry-exhausted", "retry-budget".
  std::map<std::string, u64> drops;

  std::vector<TierStats> tiers;
  PhaseStats pre_storm, storm, post_storm;

  obs::LogHistogram latency;  ///< end-to-end, completed requests only

  u64 makespan_cycles = 0;
  u64 deadline_cycles = 0;  ///< the resolved end-to-end deadline
  u64 storm_begin_cycles = 0;
  u64 storm_end_cycles = 0;
  u64 mean_service_cycles = 0;        ///< per tier
  u64 mean_interarrival_cycles = 0;
  u64 gauge_samples = 0;

  /// Goodput per simulated second over the makespan.
  double goodput_rps = 0;

  obs::Metrics metrics;    ///< topo.* counters + gauge histograms
  std::string trace_json;  ///< empty unless config.trace
};

[[nodiscard]] TopologyResult run_topology_simulation(
    compiler::Scheme scheme, const TopologyConfig& config);

}  // namespace acs::workload
