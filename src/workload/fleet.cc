#include "workload/fleet.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "inject/engine.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "sim/fault.h"
#include "workload/nginx_sim.h"

namespace acs::workload {

const char* restart_mode_name(RestartMode mode) noexcept {
  switch (mode) {
    case RestartMode::kFailFast:
      return "fail-fast";
    case RestartMode::kRestartInherit:
      return "restart-inherit";
    case RestartMode::kRestartRekey:
      return "restart-rekey";
  }
  return "unknown";
}

namespace {

/// Decorrelates the master key seed from the campaign seed (which also
/// feeds exec::trial_seed for the per-slot streams).
constexpr u64 kMasterSalt = 0x6e67'696e'785f'6d73ULL;

struct SlotOutcome {
  u64 wall_cycles = 0;  ///< attempt cycles + supervisor backoff
  u64 completed = 0;    ///< requests served by the surviving generation
  u64 restarts = 0;
  u64 backoff_cycles = 0;
  bool failed = false;  ///< exhausted max_restarts without a clean exit
  std::map<std::string, u64> crashes;
  inject::Summary inj;
  std::string fail_detail;  ///< first crash, for the fail-fast abort
  // Per-slot observability shards, merged in slot order by the caller.
  obs::Metrics metrics;
  obs::FoldedProfile profile;
  std::string trace_json;
};

/// Supervisor backoff before restart `restart_number` (1-based); the
/// shared helper saturates at the policy cap so the wall-clock adds below
/// cannot wrap.
u64 backoff_cycles_for(const RestartPolicy& policy, u64 restart_number) {
  return saturating_backoff(policy.backoff_initial_cycles,
                            policy.backoff_multiplier, restart_number,
                            policy.backoff_cap_cycles);
}

}  // namespace

FleetResult run_worker_fleet(compiler::Scheme scheme, const FleetConfig& config,
                             NginxObs* out_obs) {
  const bool want_metrics = out_obs != nullptr && config.collect_metrics;
  const bool want_profile = out_obs != nullptr && config.collect_profile;
  const bool want_trace = out_obs != nullptr && config.trace_first_trial;
  const RestartPolicy& policy = config.policy;
  // Fork semantics: under kFailFast/kRestartInherit every worker generation
  // runs with the keys the master generated once at startup. kRestartRekey
  // re-derives the machine seed per (slot, attempt) instead — fresh keys
  // for every replacement worker.
  u64 master_state = config.seed ^ kMasterSalt;
  const u64 master_key_seed = splitmix64(master_state);
  const unsigned max_attempts =
      policy.mode == RestartMode::kFailFast ? 1 : policy.max_restarts + 1;

  // Every (repeat, worker) pair is one independent supervised slot; all of
  // its randomness derives from the trial index, and outcomes land at the
  // trial index, so results are bitwise identical for any host thread
  // count (the exec::parallel_map_trials contract).
  const u64 n_slots =
      static_cast<u64>(config.repeats) * static_cast<u64>(config.workers);
  const auto outcomes = exec::parallel_map_trials<SlotOutcome>(
      n_slots, config.seed,
      [&](u64 slot, u64 slot_seed) {
        Rng seeder(slot_seed);
        const u64 jitter_seed = seeder.next();
        const u64 slot_salt = seeder.next();
        // Program point of the targeted kChainCorrupt guess: far enough in
        // for the chain to be live, early enough that every attempt
        // reaches it (a worker retires ~500 instructions per request).
        const u64 guess_at = 800 + (seeder.next() & 1023);
        // The adversary's starting guess. Randomised per slot: under
        // kRestartInherit every slot of a fleet shares the master's keys
        // (and near-identical worker code), so the *targets* are correlated
        // across slots — a fixed enumeration order would make all slots
        // succeed or fail together. A random starting point keeps slot
        // outcomes independent while still enumerating without replacement.
        const u64 guess_base = seeder.next();
        // The worker binary is fixed across generations (restart does not
        // recompile nginx); only keys and injected faults vary.
        const auto ir =
            make_worker_ir(config.requests_per_worker, jitter_seed);
        const auto program = compiler::compile_ir(ir, {.scheme = scheme});
        // One pristine master image per slot: every supervised attempt
        // below re-forks it copy-on-write (shared code/data pages, shared
        // decoded-instruction cache) instead of re-mapping and
        // re-initialising the address space — restarting a crashed worker
        // does not re-exec the binary.
        const kernel::Machine master(program, kernel::MachineOptions{});

        const bool trace_this = want_trace && slot == 0;
        std::unique_ptr<obs::Recorder> recorder;
        obs::TaskChannel* supervisor = nullptr;
        if (want_metrics || want_profile || trace_this) {
          obs::RecorderConfig rc;
          rc.metrics = want_metrics;
          rc.trace = trace_this;
          rc.profile = want_profile;
          rc.ring_capacity = config.trace_ring_capacity;
          rc.sim_hz = sim::kSimulatedHz;
          rc.process_label = "fleet";
          recorder = std::make_unique<obs::Recorder>(rc);
          // The supervisor is not a simulated task; pid 0 never collides
          // with machine-created channels (pids start at 1).
          supervisor = recorder->attach(0, slot, "supervisor");
        }

        SlotOutcome outcome;
        if (supervisor != nullptr) {
          // One request-lifecycle async track per slot: the slot index is
          // the propagated request id.
          supervisor->span_begin(obs::SpanName::kRequest, slot, 0);
        }
        for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
          inject::Engine::Config engine_config;
          if (config.faults_per_million > 0) {
            inject::PlanConfig plan_config;
            plan_config.seed = exec::trial_seed(slot_salt ^ 0xfa, attempt);
            plan_config.horizon = config.attempt_instr_budget;
            plan_config.mean_interval = static_cast<u64>(
                1e6 / config.faults_per_million);
            plan_config.kinds = config.fault_kinds;
            engine_config.draw = std::move(plan_config);
          }
          if (config.guess_window > 0) {
            // The Section 6.1 adversary: one guess per generation, window
            // values enumerated sequentially from the slot's starting
            // point. Under kRestartInherit the target bits replay
            // identically, so this samples without replacement; under
            // kRestartRekey every generation re-randomises the target.
            engine_config.guess_window = config.guess_window;
            engine_config.plan.push_back(inject::PlannedFault{
                .at_instr = guess_at,
                .min_depth = 2,
                .kind = inject::FaultKind::kChainCorrupt,
                .payload = guess_base + attempt,
            });
          }
          inject::Engine engine(std::move(engine_config));

          kernel::MachineOptions options;
          options.seed = policy.mode == RestartMode::kRestartRekey
                             ? exec::trial_seed(slot_salt, attempt)
                             : master_key_seed;
          options.recorder = recorder.get();
          options.injector = &engine;
          const u64 attempt_start = outcome.wall_cycles;
          kernel::Machine machine(master, options);
          const kernel::Stop stop = machine.run(config.attempt_instr_budget);
          const auto& process = machine.init_process();
          outcome.wall_cycles += process.cycles();
          outcome.inj.merge(engine.summary());
          if (supervisor != nullptr) {
            // The executing span covers this generation in the slot's wall
            // clock; the machine's own tracks carry the intra-attempt
            // events (including the machine-fork marker at cycle 0).
            supervisor->span_begin(obs::SpanName::kExecuting, slot,
                                   attempt_start);
            supervisor->span_end(obs::SpanName::kExecuting, slot,
                                 outcome.wall_cycles);
            supervisor->cow_pages(process.mem.private_pages());
          }

          if (stop.reason != kernel::StopReason::kMaxInstructions &&
              process.state == kernel::ProcessState::kExited &&
              process.exit_code == 0) {
            outcome.completed = config.requests_per_worker;
            if (supervisor != nullptr) {
              supervisor->span_instant(obs::SpanName::kCompleted, slot,
                                       outcome.wall_cycles);
            }
            break;
          }
          const std::string cause =
              process.state == kernel::ProcessState::kKilled
                  ? sim::fault_name(process.kill_fault.kind)
                  : (process.state == kernel::ProcessState::kLive
                         ? "hang"
                         : "exit-nonzero");
          ++outcome.crashes[cause];
          if (supervisor != nullptr) {
            supervisor->span_instant(obs::SpanName::kCrashed, slot,
                                     outcome.wall_cycles);
          }
          if (outcome.fail_detail.empty()) {
            outcome.fail_detail =
                "pid " + std::to_string(process.pid()) + ", scheme " +
                std::string(compiler::scheme_name(scheme)) +
                ", cause=" + cause;
          }
          if (attempt + 1 == max_attempts) {
            outcome.failed = true;
            break;
          }
          ++outcome.restarts;
          const u64 backoff = backoff_cycles_for(policy, outcome.restarts);
          const u64 backoff_start = outcome.wall_cycles;
          outcome.wall_cycles = saturating_add(outcome.wall_cycles, backoff);
          outcome.backoff_cycles =
              saturating_add(outcome.backoff_cycles, backoff);
          if (supervisor != nullptr) {
            supervisor->span_begin(obs::SpanName::kBackoff, slot,
                                   backoff_start);
            supervisor->span_end(obs::SpanName::kBackoff, slot,
                                 outcome.wall_cycles);
            supervisor->worker_restart(slot, attempt + 1,
                                       outcome.wall_cycles);
            supervisor->backoff_wait(backoff, attempt + 1,
                                     outcome.wall_cycles);
            supervisor->span_instant(obs::SpanName::kRestarted, slot,
                                     outcome.wall_cycles);
          }
        }
        if (supervisor != nullptr) {
          supervisor->span_end(obs::SpanName::kRequest, slot,
                               outcome.wall_cycles);
        }

        if (recorder != nullptr) {
          if (want_metrics) outcome.metrics = recorder->metrics();
          if (want_profile) outcome.profile = recorder->profile();
          if (trace_this) outcome.trace_json = recorder->trace().to_chrome_json();
        }
        return outcome;
      },
      config.threads);

  if (policy.mode == RestartMode::kFailFast) {
    // Lowest slot index wins, so the abort is thread-count independent.
    for (u64 slot = 0; slot < outcomes.size(); ++slot) {
      if (!outcomes[slot].crashes.empty()) {
        throw std::runtime_error{
            "run_worker_fleet: worker slot " + std::to_string(slot) + " (" +
            outcomes[slot].fail_detail +
            ") crashed under fail-fast policy; use a restart mode to trade "
            "availability instead"};
      }
    }
  }

  if (out_obs != nullptr) {
    // Fixed merge order (slot index) — bitwise identical for any thread
    // count (see src/exec/parallel.h's determinism contract).
    for (const auto& outcome : outcomes) {
      if (want_metrics) out_obs->metrics.merge(outcome.metrics);
      if (want_profile) out_obs->profile.merge(outcome.profile);
    }
    if (want_trace && !outcomes.empty()) {
      out_obs->trace_json = outcomes.front().trace_json;
    }
  }

  FleetResult result;
  result.total_slots = n_slots;
  result.expected_requests = static_cast<u64>(config.requests_per_worker) *
                             n_slots;
  std::vector<double> tps_per_run;
  tps_per_run.reserve(config.repeats);
  for (unsigned run = 0; run < config.repeats; ++run) {
    // Workers run concurrently under one master; fleet wall time is the
    // slowest slot (attempt cycles + its supervisor backoff).
    u64 worst_cycles = 0;
    u64 run_completed = 0;
    for (unsigned w = 0; w < config.workers; ++w) {
      const auto& outcome = outcomes[run * config.workers + w];
      worst_cycles = std::max(worst_cycles, outcome.wall_cycles);
      run_completed += outcome.completed;
    }
    if (worst_cycles == 0) {
      throw std::runtime_error{
          "run_worker_fleet: zero simulated cycles for run " +
          std::to_string(run) + " — TPS undefined"};
    }
    const double seconds = static_cast<double>(worst_cycles) /
                           static_cast<double>(sim::kSimulatedHz);
    tps_per_run.push_back(static_cast<double>(run_completed) / seconds);
  }
  result.requests_per_second = mean(tps_per_run);
  result.stddev = stddev(tps_per_run);

  inject::Summary total_inj;
  for (const auto& outcome : outcomes) {
    result.completed_requests += outcome.completed;
    result.restarts += outcome.restarts;
    result.backoff_cycles += outcome.backoff_cycles;
    if (outcome.failed) ++result.failed_slots;
    for (const auto& [cause, count] : outcome.crashes) {
      result.crashes[cause] += count;
    }
    total_inj.merge(outcome.inj);
  }
  for (std::size_t i = 0; i < inject::kNumFaultKinds; ++i) {
    result.injected[inject::fault_kind_name(
        static_cast<inject::FaultKind>(i))] = total_inj.injected[i];
  }
  result.guess_attempts = total_inj.guess_attempts;
  result.guess_successes = total_inj.guess_successes;
  return result;
}

}  // namespace acs::workload
