#include "workload/topology.h"

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <queue>
#include <stdexcept>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "inject/engine.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "workload/nginx_sim.h"
#include "workload/serving.h"

namespace acs::workload {

const char* mitigation_name(Mitigation mitigation) noexcept {
  switch (mitigation) {
    case Mitigation::kNone: return "none";
    case Mitigation::kRetryBudget: return "retry-budget";
    case Mitigation::kBreakerShed: return "breaker-shed";
  }
  return "unknown";
}

void apply_mitigation(TopologyConfig& config, Mitigation mitigation) {
  config.retry_budget_enabled = false;
  config.breaker_enabled = false;
  config.shed_enabled = false;
  config.drop_expired = false;
  switch (mitigation) {
    case Mitigation::kNone:
      break;
    case Mitigation::kRetryBudget:
      config.retry_budget_enabled = true;
      break;
    case Mitigation::kBreakerShed:
      config.retry_budget_enabled = true;
      config.breaker_enabled = true;
      config.shed_enabled = true;
      config.drop_expired = true;
      break;
  }
}

namespace {

/// Decorrelates the per-request streams from the arrival-process stream.
constexpr u64 kTopoRequestSalt = 0x746f'706f'2672'6571ULL;
constexpr u64 kTopoArrivalSalt = 0x746f'706f'2661'7272ULL;

struct AttemptOutcome {
  u64 cycles = 0;
  u64 cow_pages = 0;
  bool crashed = false;
};

/// Per-request draws, plus the memo of simulated machine outcomes (sized
/// on first use). Each attempt is a pure function of (slot_salt, tier,
/// slot, stormed) — attempt_index() names its seed index and its memo
/// entry — so simulating it early, late or never leaves every other
/// attempt unchanged.
struct RequestPre {
  u64 slot_salt = 0;
  unsigned cls = 0;
  bool low_priority = false;
  std::vector<std::optional<AttemptOutcome>> outcomes;
};

unsigned pick_class(const std::vector<ServiceClass>& classes, Rng& rng) {
  u64 total = 0;
  for (const auto& cls : classes) total += cls.weight_permille;
  u64 roll = rng.next_below(std::max<u64>(1, total));
  for (unsigned i = 0; i < classes.size(); ++i) {
    if (roll < classes[i].weight_permille) return i;
    roll -= classes[i].weight_permille;
  }
  return 0;
}

enum class Ev : u8 { kArrive, kFinish, kRetry, kHedge };

struct Event {
  u64 ts = 0;
  u64 seq = 0;  ///< insertion order: the deterministic tie-break
  Ev kind = Ev::kArrive;
  u32 request = 0;
  u16 tier = 0;
  u16 pool = 0;
  bool crashed = false;
  bool probe = false;
  u64 start_ts = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.ts != b.ts ? a.ts > b.ts : a.seq > b.seq;
  }
};

struct QueueEntry {
  u32 request = 0;
  u64 enqueue_ts = 0;
  bool probe = false;
};

enum class Breaker : u8 { kClosed, kOpen, kHalfOpen };

struct PoolState {
  std::deque<QueueEntry> queue;
  unsigned busy = 0;
  std::deque<u8> window;  ///< recent attempt outcomes, 1 = crash
  unsigned window_crashes = 0;
  Breaker breaker = Breaker::kClosed;
  u64 open_until = 0;
  bool probe_inflight = false;
  u64 tokens_milli = 0;  ///< retry-budget bucket

  [[nodiscard]] u64 outstanding() const noexcept {
    return queue.size() + busy;
  }
};

struct RequestState {
  u64 arrival = 0;
  u64 deadline_at = 0;  ///< absolute: arrival + deadline
  u8 phase = 0;         ///< 0 pre-storm, 1 storm, 2 post-storm
  unsigned tier = 0;
  u64 tier_arrival = 0;
  u16 queued_pool = 0;       ///< pool of the primary queued copy
  unsigned live = 0;         ///< copies queued or executing at this tier
  bool hedged_this_tier = false;
  bool done = false;
  bool completed = false;
  std::vector<u8> next_slot;  ///< per tier: next attempt slot
  std::vector<u8> retried;    ///< per tier: retries consumed
};

/// Gauge delta stream: appended in event order (ts nondecreasing), swept
/// on the fixed cadence afterwards.
struct GaugeDelta {
  u64 ts = 0;
  u16 tier = 0;  ///< ~u16{0} = the LB's breaker-open-pools track
  u8 field = 0;  ///< 0 = queue depth, 1 = in-flight
  i8 delta = 0;
};

constexpr u16 kLbTrack = ~u16{0};

}  // namespace

TopologyResult run_topology_simulation(compiler::Scheme scheme,
                                       const TopologyConfig& config) {
  if (config.tiers == 0 || config.pools_per_tier == 0 ||
      config.workers_per_pool == 0 || config.requests == 0 ||
      config.load_percent == 0) {
    throw std::runtime_error{
        "run_topology_simulation: tiers, pools_per_tier, workers_per_pool, "
        "requests, and load_percent must all be non-zero"};
  }
  if (config.queue_capacity == 0) {
    throw std::runtime_error{
        "run_topology_simulation: queue_capacity must be non-zero"};
  }
  if (config.backoff_multiplier == 0) {
    throw std::runtime_error{
        "run_topology_simulation: backoff_multiplier must be >= 1"};
  }
  if (config.breaker_enabled && config.breaker_window == 0) {
    throw std::runtime_error{
        "run_topology_simulation: breaker_window must be non-zero when the "
        "breaker is enabled"};
  }
  const bool storm_configured =
      config.storm_faults_per_million > 0 &&
      config.storm_end_permille > config.storm_begin_permille;
  if (storm_configured && (config.storm_tier >= config.tiers ||
                           config.storm_pool >= config.pools_per_tier)) {
    throw std::runtime_error{
        "run_topology_simulation: storm_tier/storm_pool out of range"};
  }

  const auto& classes = default_service_classes();
  const unsigned tiers = config.tiers;
  const unsigned pools = config.pools_per_tier;
  const unsigned hedge_extra = config.hedge_after_cycles > 0 ? 1 : 0;
  const unsigned slots_per_tier = config.max_restarts + 1 + hedge_extra;

  // One pristine master image per service class (all tiers run the same
  // class binary — each tier re-does the request's MAC-block work).
  u64 jitter_state = config.seed ^ kTopoRequestSalt;
  std::deque<kernel::Machine> masters;  // deque: Machine never relocates
  for (const auto& cls : classes) {
    const auto ir = make_request_ir(cls.work_units, splitmix64(jitter_state));
    masters.emplace_back(compiler::compile_ir(ir, {.scheme = scheme}),
                         kernel::MachineOptions{});
  }

  // Calibration: the weighted mean service cycles of one clean fork per
  // class set the arrival rate for the offered load. A second clean fork
  // under other keys checks the premise of clean-outcome reuse: with no
  // fault delivered, keys change PAC bits but never control flow
  // (PACStack's correctness property), so every fault-free attempt of a
  // class has exactly that class's clean outcome.
  std::vector<AttemptOutcome> clean(classes.size());
  u64 mean_service = 0;
  u64 weight_total = 0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const auto clean_run = [&](u64 seed_index) {
      kernel::MachineOptions options;
      options.seed =
          exec::trial_seed(config.seed ^ kTopoRequestSalt, seed_index);
      kernel::Machine probe(masters[i], options);
      (void)probe.run(config.attempt_instr_budget);
      const auto& process = probe.init_process();
      if (process.state != kernel::ProcessState::kExited ||
          process.exit_code != 0) {
        throw std::runtime_error{
            "run_topology_simulation: calibration run crashed for class " +
            std::string(classes[i].name)};
      }
      // {cycles, instructions, CoW pages}: what an attempt's outcome reads.
      return std::array<u64, 3>{process.cycles(), probe.total_instructions(),
                                process.mem.private_pages()};
    };
    const auto first = clean_run(i);
    if (clean_run(classes.size() + i) != first) {
      throw std::runtime_error{
          "run_topology_simulation: clean runs of class " +
          std::string(classes[i].name) +
          " differ between key seeds; fault-free attempts cannot share "
          "one outcome"};
    }
    clean[i] = {.cycles = std::max<u64>(1, first[0]), .cow_pages = first[2]};
    mean_service += first[0] * classes[i].weight_permille;
    weight_total += classes[i].weight_permille;
  }
  mean_service /= std::max<u64>(1, weight_total);
  // Every request visits every tier, so one tier's fleet is the
  // bottleneck: capacity = pools * workers requests per mean_service.
  const u64 mean_interarrival = std::max<u64>(
      1, mean_service * 100 /
             (static_cast<u64>(pools) * config.workers_per_pool *
              config.load_percent));
  const u64 deadline =
      config.deadline_cycles != 0
          ? config.deadline_cycles
          : static_cast<u64>(config.deadline_mean_multiple) * tiers *
                std::max<u64>(1, mean_service);
  const u64 breaker_cooldown = config.breaker_cooldown_cycles != 0
                                   ? config.breaker_cooldown_cycles
                                   : 4 * std::max<u64>(1, mean_service);
  const u64 hang_timeout = config.hang_timeout_cycles != 0
                               ? config.hang_timeout_cycles
                               : 6 * std::max<u64>(1, mean_service);

  // Seed and memo index of one attempt: the normal and stormed variants
  // of every (tier, slot) draw from distinct trial_seed streams.
  const auto attempt_index = [&](unsigned tier, unsigned slot, bool stormed) {
    return (static_cast<u64>(tier) * slots_per_tier + slot) * 2 +
           (stormed ? 1 : 0);
  };
  // One attempt: a CoW fork of the class master with fresh keys and its
  // own lazily drawn fault plan, run to exit, crash or the watchdog.
  const auto run_attempt = [&](const RequestPre& p, unsigned tier,
                               unsigned slot, bool stormed) {
    const u64 idx = attempt_index(tier, slot, stormed);
    inject::Engine::Config engine_config;
    inject::PlanConfig plan_config;
    plan_config.seed = exec::trial_seed(p.slot_salt ^ 0xfa, idx);
    plan_config.horizon = config.attempt_instr_budget;
    plan_config.kinds = config.fault_kinds;
    if (config.faults_per_million > 0) {
      plan_config.mean_interval =
          static_cast<u64>(1e6 / config.faults_per_million);
    }
    if (stormed) {
      // The correlated burst covers the whole attempt: from the attempt's
      // point of view the pool is inside the storm.
      plan_config.burst_start = 0;
      plan_config.burst_len = config.attempt_instr_budget;
      plan_config.burst_mean_interval =
          static_cast<u64>(1e6 / config.storm_faults_per_million);
    }
    engine_config.draw = std::move(plan_config);
    inject::Engine engine(std::move(engine_config));

    kernel::MachineOptions options;
    // Fresh keys every attempt (rekey).
    options.seed = exec::trial_seed(p.slot_salt, idx);
    options.injector = &engine;
    kernel::Machine machine(masters[p.cls], options);
    const kernel::Stop stop = machine.run(config.attempt_instr_budget);
    const auto& process = machine.init_process();
    AttemptOutcome outcome;
    outcome.cycles = std::max<u64>(1, process.cycles());
    outcome.cow_pages = process.mem.private_pages();
    outcome.crashed = stop.reason == kernel::StopReason::kMaxInstructions ||
                      process.state != kernel::ProcessState::kExited ||
                      process.exit_code != 0;
    // Hangs (runaways and injected watchdog kills) hold the worker until
    // the supervisor's hang timeout fires; clean crashes are detected
    // immediately.
    const bool hung =
        stop.reason == kernel::StopReason::kMaxInstructions ||
        (process.state == kernel::ProcessState::kKilled &&
         process.kill_fault.kind == sim::FaultKind::kInstrBudget);
    if (hung) outcome.cycles = std::max(outcome.cycles, hang_timeout);
    return outcome;
  };

  // ---- Stage 1: per-request draws --------------------------------------
  // Each request's class, priority and slot salt. Stage 2 simulates the
  // attempts a fault can reach on first dispatch.
  std::vector<RequestPre> pre(config.requests);
  for (u64 r = 0; r < config.requests; ++r) {
    Rng seeder(exec::trial_seed(config.seed ^ kTopoRequestSalt, r));
    pre[r].slot_salt = seeder.next();
    pre[r].cls = pick_class(classes, seeder);
    pre[r].low_priority =
        seeder.next_below(1000) < config.low_priority_permille;
  }

  // ---- Stage 2 (sequential): the event-driven topology -----------------
  TopologyResult result;
  result.requests = config.requests;
  result.mean_service_cycles = mean_service;
  result.mean_interarrival_cycles = mean_interarrival;
  result.deadline_cycles = deadline;
  result.attempts_simulated = 2 * classes.size();  // calibration's forks
  result.tiers.resize(tiers);
  for (const char* cause : {"queue-full", "shed-low-priority", "breaker-open",
                            "expired", "retry-exhausted", "retry-budget"}) {
    result.drops[cause] = 0;
  }

  // Open-loop arrivals (mean-preserving integer jitter).
  Rng arrivals_rng(config.seed ^ kTopoArrivalSalt);
  std::vector<u64> arrival(config.requests, 0);
  u64 clock = 0;
  for (u64 r = 0; r < config.requests; ++r) {
    clock += mean_interarrival == 1
                 ? 1
                 : arrivals_rng.next_in(1, 2 * mean_interarrival - 1);
    arrival[r] = clock;
  }
  const u64 last_arrival = clock;

  // Storm window: the arrival times of the [begin, end) per-mille slice.
  const u64 storm_begin_idx =
      config.requests * config.storm_begin_permille / 1000;
  const u64 storm_end_idx = config.requests * config.storm_end_permille / 1000;
  const bool storm_active = storm_configured && storm_end_idx > storm_begin_idx;
  if (storm_active) {
    result.storm_begin_cycles = storm_begin_idx < config.requests
                                    ? arrival[storm_begin_idx]
                                    : last_arrival + 1;
    result.storm_end_cycles = storm_end_idx < config.requests
                                  ? arrival[storm_end_idx]
                                  : last_arrival + 1;
  }

  // The span/gauge timeline: the LB channel carries whole-request spans
  // and breaker gauges; each tier channel carries that tier's stage spans
  // and queue/in-flight gauges — deterministic attach order.
  obs::RecorderConfig timeline_config;
  timeline_config.metrics = config.collect_metrics;
  timeline_config.trace = config.trace;
  timeline_config.ring_capacity = config.trace_ring_capacity;
  timeline_config.sim_hz = sim::kSimulatedHz;
  timeline_config.process_label = "topology";
  obs::Recorder timeline(timeline_config);
  obs::TaskChannel* lb = timeline.attach(0, 0, "lb");
  std::vector<obs::TaskChannel*> tier_channel(tiers);
  for (unsigned t = 0; t < tiers; ++t) {
    tier_channel[t] = timeline.attach(0, 1 + t, "tier" + std::to_string(t));
  }

  std::vector<std::vector<PoolState>> pool_state(
      tiers, std::vector<PoolState>(pools));
  std::vector<RequestState> req(config.requests);
  std::vector<u64> tier_queue_depth(tiers, 0);  // summed over pools
  std::vector<u64> tier_inflight(tiers, 0);
  unsigned open_pools = 0;
  std::vector<GaugeDelta> gauges;
  gauges.reserve(config.requests * tiers * 4);

  const u64 shed_threshold = std::max<u64>(
      1, config.queue_capacity * config.shed_queue_permille / 1000);
  const u64 lifo_threshold = std::max<u64>(
      1, config.queue_capacity * config.lifo_queue_permille / 1000);

  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  u64 next_seq = 0;
  const auto push_event = [&](Event e) {
    e.seq = next_seq++;
    events.push(e);
  };

  for (u64 r = 0; r < config.requests; ++r) {
    RequestState& rs = req[r];
    rs.arrival = arrival[r];
    rs.deadline_at = saturating_add(arrival[r], deadline);
    rs.phase = !storm_active || r < storm_begin_idx ? 0
               : r < storm_end_idx                  ? 1
                                                    : 2;
    rs.next_slot.assign(tiers, 0);
    rs.retried.assign(tiers, 0);
    push_event({.ts = arrival[r],
                .kind = Ev::kArrive,
                .request = static_cast<u32>(r),
                .tier = 0});
  }

  PhaseStats* const phases[3] = {&result.pre_storm, &result.storm,
                                 &result.post_storm};
  for (u64 r = 0; r < config.requests; ++r) {
    ++phases[req[r].phase]->arrivals;
  }

  const auto in_storm = [&](unsigned tier, unsigned pool, u64 ts) {
    return storm_active && tier == config.storm_tier &&
           pool == config.storm_pool && ts >= result.storm_begin_cycles &&
           ts < result.storm_end_cycles;
  };

  // Terminal drop/fail: one cause per request, charged exactly once, with
  // a cause-specific instant on the LB channel.
  const auto terminate = [&](u64 r, u64 ts, const char* cause, bool failed,
                             obs::SpanName marker) {
    RequestState& rs = req[r];
    rs.done = true;
    ++result.drops[cause];
    if (failed) {
      ++result.failed;
    } else {
      ++result.dropped;
    }
    lb->span_instant(marker, r, ts);
    lb->span_end(obs::SpanName::kRequest, r, ts);
    result.makespan_cycles = std::max(result.makespan_cycles, ts);
  };

  const auto complete = [&](u64 r, u64 ts) {
    RequestState& rs = req[r];
    rs.done = true;
    rs.completed = true;
    ++result.completed;
    ++phases[rs.phase]->completed;
    const u64 latency = ts - rs.arrival;
    result.latency.observe(latency);
    if (ts <= rs.deadline_at) {
      ++result.goodput;
      ++phases[rs.phase]->goodput;
      lb->span_instant(obs::SpanName::kCompleted, r, ts);
    } else {
      ++result.deadline_missed;
      lb->span_instant(obs::SpanName::kDeadlineMiss, r, ts);
    }
    lb->span_end(obs::SpanName::kRequest, r, ts);
    result.makespan_cycles = std::max(result.makespan_cycles, ts);
  };

  // An attempt's outcome. One no fault can reach is its class's clean
  // outcome; any other is simulated on first use. Stage 2 is sequential,
  // so the memo needs no lock, and each attempt depends only on its own
  // seeds, so the order of first use changes no outcome.
  const auto outcome_of = [&](u64 r, unsigned tier, unsigned slot,
                              bool stormed) -> const AttemptOutcome& {
    RequestPre& p = pre[r];
    if (!stormed && config.faults_per_million == 0) return clean[p.cls];
    if (p.outcomes.empty()) {
      p.outcomes.resize(static_cast<std::size_t>(tiers) * slots_per_tier * 2);
    }
    std::optional<AttemptOutcome>& memo =
        p.outcomes[attempt_index(tier, slot, stormed)];
    if (!memo) {
      memo = run_attempt(p, tier, slot, stormed);
      ++result.attempts_simulated;
    }
    return *memo;
  };

  // Dispatch as many queued entries as the pool has free workers.
  const auto try_dispatch = [&](unsigned tier, unsigned pool, u64 ts) {
    PoolState& ps = pool_state[tier][pool];
    TierStats& stats = result.tiers[tier];
    while (ps.busy < config.workers_per_pool && !ps.queue.empty()) {
      const bool lifo =
          config.shed_enabled && ps.queue.size() >= lifo_threshold;
      QueueEntry entry = lifo ? ps.queue.back() : ps.queue.front();
      if (lifo) {
        ps.queue.pop_back();
      } else {
        ps.queue.pop_front();
      }
      --tier_queue_depth[tier];
      gauges.push_back({ts, static_cast<u16>(tier), 0, -1});
      tier_channel[tier]->span_end(obs::SpanName::kQueued, entry.request, ts);

      RequestState& rs = req[entry.request];
      if (rs.done || rs.tier != tier) {
        // Stale copy: the request was resolved (hedge winner, terminal
        // drop) while this duplicate sat queued.
        if (entry.probe) ps.probe_inflight = false;
        continue;
      }
      if (config.drop_expired && ts > rs.deadline_at) {
        if (entry.probe) ps.probe_inflight = false;
        if (rs.live > 0) --rs.live;
        if (rs.live == 0) {
          tier_channel[tier]->span_end(obs::SpanName::kTier, entry.request,
                                       ts);
          terminate(entry.request, ts, "expired", /*failed=*/false,
                     obs::SpanName::kDeadlineMiss);
        }
        continue;
      }

      const unsigned slot =
          std::min<unsigned>(rs.next_slot[tier]++, slots_per_tier - 1);
      const AttemptOutcome& outcome =
          outcome_of(entry.request, tier, slot, in_storm(tier, pool, ts));

      ++ps.busy;
      ++tier_inflight[tier];
      gauges.push_back({ts, static_cast<u16>(tier), 1, +1});
      ++stats.dispatched;
      ++result.forks;
      result.cow_pages_copied += outcome.cow_pages;
      stats.queue_wait.observe(ts - entry.enqueue_ts);
      tier_channel[tier]->span_instant(obs::SpanName::kForked, entry.request,
                                       ts);
      tier_channel[tier]->span_begin(obs::SpanName::kExecuting, entry.request,
                                     ts);
      push_event({.ts = ts + outcome.cycles,
                  .kind = Ev::kFinish,
                  .request = entry.request,
                  .tier = static_cast<u16>(tier),
                  .pool = static_cast<u16>(pool),
                  .crashed = outcome.crashed,
                  .probe = entry.probe,
                  .start_ts = ts});
    }
  };

  // Route a copy of request r into the best admitting pool of `tier`.
  // `kind`: 0 = fresh tier arrival, 1 = retry re-arrival, 2 = hedge.
  const auto route = [&](u64 r, unsigned tier, u64 ts, int kind) {
    RequestState& rs = req[r];
    PoolState* tier_pools = pool_state[tier].data();
    TierStats& stats = result.tiers[tier];

    // Breaker state sweep + admitting-pool selection (least outstanding,
    // ties to the lowest index; hedges exclude the primary's pool).
    int best = -1;
    for (unsigned p = 0; p < pools; ++p) {
      PoolState& ps = tier_pools[p];
      if (config.breaker_enabled && ps.breaker == Breaker::kOpen &&
          ts >= ps.open_until) {
        ps.breaker = Breaker::kHalfOpen;
        --open_pools;
        gauges.push_back({ts, kLbTrack, 0, -1});
      }
      if (config.breaker_enabled) {
        if (ps.breaker == Breaker::kOpen) continue;
        if (ps.breaker == Breaker::kHalfOpen && ps.probe_inflight) continue;
      }
      if (kind == 2 && p == rs.queued_pool) continue;
      if (best < 0 ||
          ps.outstanding() < tier_pools[best].outstanding()) {
        best = static_cast<int>(p);
      }
    }
    if (best < 0) {
      if (kind == 2) return;  // no pool for the hedge: skip it silently
      if (rs.live == 0) {
        terminate(r, ts, "breaker-open", /*failed=*/false,
                  obs::SpanName::kRejected);
      }
      return;
    }
    PoolState& ps = tier_pools[best];

    if (config.shed_enabled && pre[r].low_priority &&
        ps.queue.size() >= shed_threshold) {
      if (kind == 2) return;
      if (rs.live == 0) {
        terminate(r, ts, "shed-low-priority", /*failed=*/false,
                  obs::SpanName::kShed);
      }
      return;
    }
    if (ps.queue.size() >= config.queue_capacity) {
      if (kind == 2) return;
      if (rs.live == 0) {
        terminate(r, ts, "queue-full", /*failed=*/false,
                  obs::SpanName::kRejected);
      }
      return;
    }

    QueueEntry entry;
    entry.request = static_cast<u32>(r);
    entry.enqueue_ts = ts;
    if (config.breaker_enabled && ps.breaker == Breaker::kHalfOpen) {
      entry.probe = true;
      ps.probe_inflight = true;
      ++stats.breaker_probes;
      ++result.breaker_probes;
      tier_channel[tier]->span_instant(obs::SpanName::kBreakerProbe,
                                       static_cast<u64>(best), ts);
    }
    if (kind != 2) rs.queued_pool = static_cast<u16>(best);
    ps.queue.push_back(entry);
    ++rs.live;
    ++tier_queue_depth[tier];
    stats.queue_depth_max =
        std::max(stats.queue_depth_max, tier_queue_depth[tier]);
    gauges.push_back({ts, static_cast<u16>(tier), 0, +1});
    tier_channel[tier]->span_begin(obs::SpanName::kQueued, r, ts);

    // Earn retry-budget tokens on fresh admissions only: the budget is a
    // fraction of real traffic, so retries can't feed themselves.
    if (config.retry_budget_enabled && kind == 0) {
      ps.tokens_milli = std::min<u64>(
          config.retry_budget_burst,
          ps.tokens_milli + config.retry_budget_permille);
    }
    if (config.hedge_after_cycles > 0 && kind == 0 && !rs.hedged_this_tier) {
      push_event({.ts = ts + config.hedge_after_cycles,
                  .kind = Ev::kHedge,
                  .request = static_cast<u32>(r),
                  .tier = static_cast<u16>(tier)});
    }
    try_dispatch(tier, static_cast<unsigned>(best), ts);
  };

  while (!events.empty()) {
    const Event e = events.top();
    events.pop();
    RequestState& rs = req[e.request];

    switch (e.kind) {
      case Ev::kArrive: {
        if (e.tier == 0) {
          lb->span_begin(obs::SpanName::kRequest, e.request, e.ts);
          lb->span_instant(obs::SpanName::kAdmitted, e.request, e.ts);
        }
        rs.tier = e.tier;
        rs.tier_arrival = e.ts;
        rs.hedged_this_tier = false;
        rs.live = 0;
        tier_channel[e.tier]->span_begin(obs::SpanName::kTier, e.request,
                                         e.ts);
        route(e.request, e.tier, e.ts, /*kind=*/0);
        if (rs.done) {
          // Routed straight into a terminal drop: close the tier span the
          // arrival opened.
          tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request,
                                         e.ts);
        }
        break;
      }

      case Ev::kRetry: {
        if (rs.done || rs.tier != e.tier) break;
        tier_channel[e.tier]->span_end(obs::SpanName::kBackoff, e.request,
                                       e.ts);
        tier_channel[e.tier]->span_instant(obs::SpanName::kRestarted,
                                           e.request, e.ts);
        route(e.request, e.tier, e.ts, /*kind=*/1);
        if (rs.done) {
          tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request,
                                         e.ts);
        }
        break;
      }

      case Ev::kHedge: {
        // Hedge only while the primary is still queued (nothing
        // dispatched at this tier) and the request is still here.
        if (rs.done || rs.tier != e.tier || rs.next_slot[e.tier] != 0 ||
            rs.hedged_this_tier || rs.live == 0) {
          break;
        }
        rs.hedged_this_tier = true;
        const u64 before = rs.live;
        route(e.request, e.tier, e.ts, /*kind=*/2);
        if (rs.live > before) {
          ++result.tiers[e.tier].hedges;
          ++result.hedges;
          tier_channel[e.tier]->span_instant(obs::SpanName::kHedged,
                                             e.request, e.ts);
        }
        break;
      }

      case Ev::kFinish: {
        PoolState& ps = pool_state[e.tier][e.pool];
        TierStats& stats = result.tiers[e.tier];
        --ps.busy;
        --tier_inflight[e.tier];
        gauges.push_back({e.ts, e.tier, 1, -1});
        tier_channel[e.tier]->span_end(obs::SpanName::kExecuting, e.request,
                                       e.ts);

        if (config.breaker_enabled) {
          if (e.probe) {
            ps.probe_inflight = false;
            if (e.crashed) {
              ps.breaker = Breaker::kOpen;
              ps.open_until = e.ts + breaker_cooldown;
              ++open_pools;
              gauges.push_back({e.ts, kLbTrack, 0, +1});
            } else {
              ps.breaker = Breaker::kClosed;
              ps.window.clear();
              ps.window_crashes = 0;
              tier_channel[e.tier]->span_instant(obs::SpanName::kBreakerClose,
                                                 e.pool, e.ts);
            }
          } else if (ps.breaker == Breaker::kClosed) {
            ps.window.push_back(e.crashed ? 1 : 0);
            if (e.crashed) ++ps.window_crashes;
            if (ps.window.size() > config.breaker_window) {
              ps.window_crashes -= ps.window.front();
              ps.window.pop_front();
            }
            if (ps.window.size() >= config.breaker_window &&
                static_cast<u64>(ps.window_crashes) * 1000 >=
                    static_cast<u64>(config.breaker_trip_permille) *
                        ps.window.size()) {
              ps.breaker = Breaker::kOpen;
              ps.open_until = e.ts + breaker_cooldown;
              ps.window.clear();
              ps.window_crashes = 0;
              ++open_pools;
              gauges.push_back({e.ts, kLbTrack, 0, +1});
              ++stats.breaker_trips;
              ++result.breaker_trips;
              tier_channel[e.tier]->span_instant(obs::SpanName::kBreakerTrip,
                                                 e.pool, e.ts);
            }
          }
        }

        // Workers freed: pull the next queued entry regardless of what
        // this outcome means for the request.
        try_dispatch(e.tier, e.pool, e.ts);

        if (rs.done || rs.tier != e.tier) break;  // late hedge duplicate

        if (e.crashed) {
          ++stats.crashed_attempts;
          ++result.crashed_attempts;
          tier_channel[e.tier]->span_instant(obs::SpanName::kCrashed,
                                             e.request, e.ts);
          if (rs.live > 0) --rs.live;
          if (rs.live > 0) break;  // a hedge copy is still in play

          if (rs.retried[e.tier] >= config.max_restarts) {
            tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request,
                                           e.ts);
            terminate(e.request, e.ts, "retry-exhausted", /*failed=*/true,
                       obs::SpanName::kCrashed);
            break;
          }
          if (config.drop_expired && e.ts > rs.deadline_at) {
            tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request,
                                           e.ts);
            terminate(e.request, e.ts, "expired", /*failed=*/false,
                       obs::SpanName::kDeadlineMiss);
            break;
          }
          if (config.retry_budget_enabled) {
            if (ps.tokens_milli < 1000) {
              ++stats.retry_budget_denied;
              ++result.retry_budget_denied;
              tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request,
                                             e.ts);
              terminate(e.request, e.ts, "retry-budget", /*failed=*/true,
                         obs::SpanName::kCrashed);
              break;
            }
            ps.tokens_milli -= 1000;
          }
          const u64 restart_number = ++rs.retried[e.tier];
          const u64 backoff = saturating_backoff(
              config.backoff_initial_cycles, config.backoff_multiplier,
              restart_number, config.backoff_cap_cycles);
          ++stats.retries;
          ++result.retries;
          stats.backoff_cycles =
              saturating_add(stats.backoff_cycles, backoff);
          result.backoff_cycles =
              saturating_add(result.backoff_cycles, backoff);
          tier_channel[e.tier]->span_begin(obs::SpanName::kBackoff,
                                           e.request, e.ts);
          push_event({.ts = saturating_add(e.ts, backoff),
                      .kind = Ev::kRetry,
                      .request = e.request,
                      .tier = e.tier});
          break;
        }

        // Tier success.
        ++stats.completed;
        stats.latency.observe(e.ts - rs.tier_arrival);
        rs.live = 0;
        tier_channel[e.tier]->span_end(obs::SpanName::kTier, e.request, e.ts);
        if (e.tier + 1U < tiers) {
          push_event({.ts = e.ts,
                      .kind = Ev::kArrive,
                      .request = e.request,
                      .tier = static_cast<u16>(e.tier + 1)});
        } else {
          complete(e.request, e.ts);
        }
        break;
      }
    }
  }

  result.makespan_cycles = std::max(result.makespan_cycles, last_arrival);

  // Gauge sweep on the fixed cadence: deltas were appended in event order,
  // so each tier's running depth replays exactly. The by-name gauge
  // histograms are kept only under collect_metrics, so only then are they
  // named and filled.
  obs::Metrics gauge_metrics;
  {
    std::vector<std::string> queue_names, inflight_names;
    if (config.collect_metrics) {
      for (unsigned tier = 0; tier < tiers; ++tier) {
        const std::string prefix = "topo.tier" + std::to_string(tier);
        queue_names.push_back(prefix + ".queue.depth");
        inflight_names.push_back(prefix + ".inflight");
      }
    }
    std::vector<u64> queue_now(tiers, 0), inflight_now(tiers, 0);
    u64 open_now = 0;
    std::size_t next_delta = 0;
    const u64 cadence = std::max<u64>(1, config.gauge_cadence_cycles);
    for (u64 t = 0; t <= result.makespan_cycles; t += cadence) {
      while (next_delta < gauges.size() && gauges[next_delta].ts <= t) {
        const GaugeDelta& d = gauges[next_delta++];
        if (d.tier == kLbTrack) {
          open_now += static_cast<u64>(static_cast<i64>(d.delta));
        } else if (d.field == 0) {
          queue_now[d.tier] += static_cast<u64>(static_cast<i64>(d.delta));
        } else {
          inflight_now[d.tier] += static_cast<u64>(static_cast<i64>(d.delta));
        }
      }
      for (unsigned tier = 0; tier < tiers; ++tier) {
        tier_channel[tier]->gauge(obs::GaugeId::kQueueDepth, queue_now[tier],
                                  t);
        tier_channel[tier]->gauge(obs::GaugeId::kInFlight, inflight_now[tier],
                                  t);
        if (config.collect_metrics) {
          gauge_metrics.observe(queue_names[tier], obs::depth_edges(),
                                queue_now[tier]);
          gauge_metrics.observe(inflight_names[tier], obs::depth_edges(),
                                inflight_now[tier]);
        }
      }
      lb->gauge(obs::GaugeId::kBreakerOpenPools, open_now, t);
      if (config.collect_metrics) {
        gauge_metrics.observe("topo.breaker.open_pools", obs::depth_edges(),
                              open_now);
      }
      ++result.gauge_samples;
    }
  }

  result.goodput_rps =
      result.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(result.goodput) /
                (static_cast<double>(result.makespan_cycles) /
                 static_cast<double>(sim::kSimulatedHz));

  if (config.collect_metrics) {
    obs::Metrics topo;
    topo.add("topo.requests", result.requests);
    topo.add("topo.completed", result.completed);
    topo.add("topo.goodput", result.goodput);
    topo.add("topo.deadline_missed", result.deadline_missed);
    topo.add("topo.dropped", result.dropped);
    topo.add("topo.failed", result.failed);
    topo.add("topo.crashed_attempts", result.crashed_attempts);
    topo.add("topo.retries", result.retries);
    topo.add("topo.hedges", result.hedges);
    topo.add("topo.breaker.trips", result.breaker_trips);
    topo.add("topo.breaker.probes", result.breaker_probes);
    topo.add("topo.forks", result.forks);
    topo.add("topo.backoff.cycles", result.backoff_cycles);
    for (const auto& [cause, count] : result.drops) {
      topo.add("topo.drop." + std::string(cause), count);
    }
    // The timeline channels carry only spans and gauge samples: no machine
    // is attached to them, so their sim/pa/chain/kernel/fleet counters and
    // depth histograms would read 0.
    const obs::Metrics channels = timeline.metrics();
    for (const char* name :
         {"obs.span.begin", "obs.span.instant", "obs.gauge.sample"}) {
      topo.add(name, channels.counter(name));
    }
    if (config.trace) {
      topo.add("obs.trace.dropped", channels.counter("obs.trace.dropped"));
    }
    result.metrics.merge(topo);
    result.metrics.merge(gauge_metrics);
  }
  if (config.trace) {
    result.trace_json = timeline.trace().to_chrome_json();
  }
  return result;
}

}  // namespace acs::workload
