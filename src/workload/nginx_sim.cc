#include "workload/nginx_sim.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"

namespace acs::workload {

namespace {

/// Adds the request path shared by both program shapes to `builder` and
/// returns ngx$handle_request: parse → handshake → respond, whose
/// handshake drives `mac_blocks` MAC blocks. Jitter is drawn from
/// `jitter_seed` in a fixed order, so a seed always yields the same program.
std::size_t add_request_path(compiler::IrBuilder& builder, u64 mac_blocks,
                             u64 jitter_seed) {
  Rng rng(jitter_seed);
  const auto jitter = [&rng](u64 base) {
    // +/- 5% per-run variation in the request mix.
    return base - base / 20 + rng.next_below(base / 10 + 1);
  };

  // Small helpers (leaf): header token scanning, buffer copies.
  const auto scan = builder.begin_function("ngx$scan");
  builder.compute(jitter(18));
  const auto copy = builder.begin_function("ngx$copy");
  builder.compute(jitter(12));

  // Cipher round (leaf) and MAC block: the handshake's inner loop. The MAC
  // block is itself a non-leaf (it drives rounds through a function
  // pointer-free call), matching OpenSSL's call-heavy record processing.
  const auto cipher_round = builder.begin_function("ngx$cipher_round");
  builder.compute(jitter(22));
  const auto mac_block = builder.begin_function("ngx$mac_block");
  builder.call(cipher_round, 2);
  builder.compute(jitter(18));

  // parse(): header-heavy, many small calls, stack buffer for the line.
  const auto parse = builder.begin_function("ngx$parse", 128);
  builder.store_local(0, 0x47455420);  // "GET "
  builder.call(scan, 6);
  builder.call(copy, 2);
  builder.compute(jitter(60));

  // handshake(): asymmetric-crypto stand-in: deep chain + MAC blocks.
  const auto kdf = builder.begin_function("ngx$kdf");
  builder.call(mac_block, 4);
  const auto key_exchange = builder.begin_function("ngx$key_exchange");
  builder.compute(jitter(420));  // modular-arithmetic stand-in
  builder.call(kdf);
  const auto handshake = builder.begin_function("ngx$handshake");
  builder.call(key_exchange);
  builder.call(mac_block, mac_blocks);

  // respond(): tiny body (the paper's 0-byte responses), plus teardown.
  const auto respond = builder.begin_function("ngx$respond", 64);
  builder.store_local(0, 0x200);
  builder.call(copy, 2);
  builder.compute(jitter(40));

  const auto handle = builder.begin_function("ngx$handle_request");
  builder.call(parse);
  builder.call(handshake);
  builder.call(respond);
  return handle;
}

}  // namespace

compiler::ProgramIr make_worker_ir(u64 requests, u64 jitter_seed) {
  compiler::IrBuilder builder;
  const auto handle = add_request_path(builder, 10, jitter_seed);
  const auto worker = builder.begin_function("ngx$worker");
  builder.call(handle, requests);
  builder.write_int(requests);  // completion marker
  return builder.build(worker);
}

compiler::ProgramIr make_request_ir(u64 work_units, u64 jitter_seed) {
  compiler::IrBuilder builder;
  const auto handle = add_request_path(
      builder, std::max<u64>(1, work_units), jitter_seed);
  const auto request_main = builder.begin_function("ngx$request_main");
  builder.call(handle);
  builder.write_int(1);  // completion marker
  return builder.build(request_main);
}

namespace {

struct WorkerOutcome {
  u64 cycles = 0;
  bool clean_exit = false;
  kernel::ProcessState state = kernel::ProcessState::kLive;
  u64 exit_code = 0;
  u64 pid = 0;
  sim::FaultKind kill_kind = sim::FaultKind::kNone;
  // Per-trial observability shards, merged in trial order by the caller.
  obs::Metrics metrics;
  obs::FoldedProfile profile;
  std::string trace_json;
};

}  // namespace

NginxRunResult run_nginx_experiment(compiler::Scheme scheme,
                                    const NginxConfig& config,
                                    NginxObs* out_obs) {
  const bool want_metrics = out_obs != nullptr && config.collect_metrics;
  const bool want_profile = out_obs != nullptr && config.collect_profile;
  const bool want_trace = out_obs != nullptr && config.trace_first_trial;
  // Every (repeat, worker) pair is one independent trial: its jitter and
  // machine seeds derive from the trial index, and outcomes land at the
  // trial index, so the per-run aggregation below is identical for any
  // host thread count.
  const u64 n_trials =
      static_cast<u64>(config.repeats) * static_cast<u64>(config.workers);
  const auto outcomes = exec::parallel_map_trials<WorkerOutcome>(
      n_trials, config.seed,
      [&](u64 trial, u64 trial_seed) {
        Rng seeder(trial_seed);
        const auto ir =
            make_worker_ir(config.requests_per_worker, seeder.next());
        const auto program = compiler::compile_ir(ir, {.scheme = scheme});
        kernel::MachineOptions options;
        options.seed = seeder.next();
        // Each trial gets its own recorder shard (no cross-thread state);
        // the trace dimension is on for trial 0 only.
        const bool trace_this = want_trace && trial == 0;
        std::unique_ptr<obs::Recorder> recorder;
        if (want_metrics || want_profile || trace_this) {
          obs::RecorderConfig rc;
          rc.metrics = want_metrics;
          rc.trace = trace_this;
          rc.profile = want_profile;
          rc.ring_capacity = config.trace_ring_capacity;
          rc.sim_hz = sim::kSimulatedHz;
          rc.process_label = "nginx-sim";
          recorder = std::make_unique<obs::Recorder>(rc);
          options.recorder = recorder.get();
        }
        kernel::Machine machine(program, options);
        machine.run();
        const auto& process = machine.init_process();
        WorkerOutcome outcome;
        outcome.cycles = process.cycles();
        outcome.state = process.state;
        outcome.exit_code = process.exit_code;
        outcome.pid = process.pid();
        outcome.kill_kind = process.kill_fault.kind;
        outcome.clean_exit = process.state == kernel::ProcessState::kExited &&
                             process.exit_code == 0;
        if (recorder != nullptr) {
          if (want_metrics) outcome.metrics = recorder->metrics();
          if (want_profile) outcome.profile = recorder->profile();
          if (trace_this) outcome.trace_json = recorder->trace().to_chrome_json();
        }
        return outcome;
      },
      config.threads);

  if (out_obs != nullptr) {
    // Fixed merge order (trial index) — bitwise identical for any thread
    // count (see src/exec/parallel.h's determinism contract).
    for (const auto& outcome : outcomes) {
      if (want_metrics) out_obs->metrics.merge(outcome.metrics);
      if (want_profile) out_obs->profile.merge(outcome.profile);
    }
    if (want_trace && !outcomes.empty()) {
      out_obs->trace_json = outcomes.front().trace_json;
    }
  }

  std::vector<double> tps_per_run;
  tps_per_run.reserve(config.repeats);
  for (unsigned run = 0; run < config.repeats; ++run) {
    // Independent workers; wall time = the slowest worker.
    u64 worst_cycles = 0;
    u64 total_requests = 0;
    for (unsigned w = 0; w < config.workers; ++w) {
      const auto& outcome = outcomes[run * config.workers + w];
      // A crashed/killed worker completed none of its requests; silently
      // counting its cycles and request quota would inflate TPS. Fail-fast
      // is this experiment's explicit policy — a crash means the TPS
      // estimate is unsalvageable. Use workload::run_worker_fleet for the
      // supervised restart policies that trade availability instead.
      if (!outcome.clean_exit) {
        throw std::runtime_error{
            "run_nginx_experiment: worker " + std::to_string(w) + " of run " +
            std::to_string(run) + " (pid " + std::to_string(outcome.pid) +
            ", scheme " + compiler::scheme_name(scheme) +
            ") did not exit cleanly (state=" +
            std::to_string(static_cast<int>(outcome.state)) +
            ", fault=" + sim::fault_name(outcome.kill_kind) +
            ", exit_code=" + std::to_string(outcome.exit_code) + ")"};
      }
      worst_cycles = std::max(worst_cycles, outcome.cycles);
      total_requests += config.requests_per_worker;
    }
    if (worst_cycles == 0) {
      throw std::runtime_error{
          "run_nginx_experiment: zero simulated cycles for run " +
          std::to_string(run) + " — TPS undefined"};
    }
    const double seconds = static_cast<double>(worst_cycles) /
                           static_cast<double>(sim::kSimulatedHz);
    tps_per_run.push_back(static_cast<double>(total_requests) / seconds);
  }
  NginxRunResult result;
  result.requests_per_second = mean(tps_per_run);
  result.stddev = stddev(tps_per_run);
  result.total_requests =
      config.workers * config.requests_per_worker * config.repeats;
  return result;
}

}  // namespace acs::workload
