// Lazy plans and fast-path delivery are optimisations only: a lazily drawn
// plan delivers exactly the faults of its eager make_plan twin, and a hart
// that runs Cpu::run_fast between due windows ends every scheduling call in
// exactly the state the per-step reference path (step() for every
// instruction, which an attached trace ring selects) reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/ir.h"
#include "inject/engine.h"
#include "inject/plan.h"
#include "kernel/machine.h"
#include "workload/nginx_sim.h"

namespace acs::inject {
namespace {

using kernel::Machine;
using kernel::MachineOptions;
using kernel::StopReason;

void expect_same_fault(const PlannedFault& a, const PlannedFault& b) {
  EXPECT_EQ(a.at_instr, b.at_instr);
  EXPECT_EQ(a.min_depth, b.min_depth);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.payload, b.payload);
}

/// Polls a lazy and an eager engine with the same (kernel_due/kernel_take,
/// quiet_steps, due/take) sequence on one instruction clock, the way a
/// single-hart machine does: kernel polls at slice boundaries, a CPU poll
/// per step with a wandering call depth.
void expect_same_delivery(const PlanConfig& config) {
  Engine lazy({.draw = config});
  Engine eager({.plan = make_plan(config)});
  TaskInjector* lazy_cpu = lazy.attach();
  TaskInjector* eager_cpu = eager.attach();
  ASSERT_NE(lazy_cpu, nullptr);
  ASSERT_NE(eager_cpu, nullptr);
  Rng rng(config.seed ^ 0x5a5a);
  u64 delivered = 0;
  const u64 end = config.horizon + kDepthGrace + 2;
  for (u64 instr = 0; instr < end; ++instr) {
    if (instr % 7 == 0) {
      for (;;) {
        const bool due = lazy.kernel_due(instr);
        ASSERT_EQ(due, eager.kernel_due(instr)) << "kernel poll at " << instr;
        if (!due) break;
        expect_same_fault(lazy.kernel_take(), eager.kernel_take());
        ++delivered;
      }
    }
    const u64 depth = rng.next_below(6);
    ASSERT_EQ(lazy_cpu->quiet_steps(instr), eager_cpu->quiet_steps(instr))
        << "quiet steps at " << instr;
    const bool due = lazy_cpu->due(instr, depth, 0);
    ASSERT_EQ(due, eager_cpu->due(instr, depth, 0)) << "cpu poll at " << instr;
    if (due) {
      expect_same_fault(lazy_cpu->take(), eager_cpu->take());
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, make_plan(config).size());
  EXPECT_FALSE(lazy.kernel_due(~u64{0}));
  EXPECT_FALSE(lazy_cpu->due(~u64{0}, ~u64{0}, 0));
  EXPECT_EQ(lazy_cpu->quiet_steps(end), ~u64{0});
}

TEST(LazyPlan, DeliversTheEagerPlanOnOneClock) {
  const std::vector<FaultKind> kind_sets[] = {
      {},  // all six plannable kinds
      {FaultKind::kBudgetExhaust},
      {FaultKind::kInstrSkip, FaultKind::kRetSlotBitflip},
      {FaultKind::kChainCorrupt, FaultKind::kKeyPerturb,
       FaultKind::kSigFrameTrash},
  };
  for (u64 seed = 1; seed <= 6; ++seed) {
    for (const auto& kinds : kind_sets) {
      PlanConfig config;
      config.seed = seed;
      config.horizon = 20'000;
      config.mean_interval = 40 * seed;
      config.kinds = kinds;
      expect_same_delivery(config);
      // Burst alone is single-stream too: the stormed-attempt shape.
      config.mean_interval = 0;
      config.burst_start = 3'000;
      config.burst_len = 5'000;
      config.burst_mean_interval = 10 * seed;
      expect_same_delivery(config);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LazyPlan, TwoStreamAndExplicitPlansStayEager) {
  // A two-stream plan, and a drawn plan with explicit faults appended,
  // are drained up front; delivery still matches make_plan (+ the explicit
  // fault, which sorts after drawn faults at the same at_instr).
  PlanConfig config;
  config.seed = 3;
  config.horizon = 20'000;
  config.mean_interval = 300;
  config.burst_start = 5'000;
  config.burst_len = 2'000;
  config.burst_mean_interval = 20;
  expect_same_delivery(config);

  config.burst_len = 0;
  config.kinds = {FaultKind::kInstrSkip};
  const std::vector<PlannedFault> drawn = make_plan(config);
  ASSERT_FALSE(drawn.empty());
  const PlannedFault guess{.at_instr = drawn.front().at_instr,
                           .kind = FaultKind::kChainCorrupt,
                           .payload = 0x77};
  Engine engine({.plan = {guess}, .draw = config});
  TaskInjector* hart = engine.attach();
  ASSERT_TRUE(hart->due(guess.at_instr, /*call_depth=*/99, 0));
  EXPECT_EQ(hart->take().payload, drawn.front().payload);
  ASSERT_TRUE(hart->due(guess.at_instr, /*call_depth=*/99, 0));
  EXPECT_EQ(hart->take().kind, FaultKind::kChainCorrupt);
}

// --- run_fast under injection vs per-step delivery --------------------------

struct Checkpoint {
  sim::CpuSnapshot regs;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 last_run_steps = 0;
  u64 call_depth = 0;
  sim::RunState state = sim::RunState::kReady;
  kernel::ProcessState process = kernel::ProcessState::kLive;
  std::vector<u64> output;
  Summary summary;
};

/// Runs `program` in small Machine::run calls (odd budget and time slice,
/// so slice ends land everywhere relative to fault windows) and records
/// the hart after every call. `reference` attaches a trace ring, which
/// makes every hart step() each instruction.
std::vector<Checkpoint> run_checkpoints(const sim::Program& program,
                                        Engine::Config config, u64 seed,
                                        bool reference) {
  Engine engine(std::move(config));
  MachineOptions options;
  options.seed = seed;
  options.injector = &engine;
  options.trace_depth = reference ? 1 : 0;
  options.time_slice = 13;
  Machine machine(program, options);
  std::vector<Checkpoint> out;
  for (int call = 0; call < 100'000; ++call) {
    const kernel::Stop stop = machine.run(97);
    const auto& process = machine.init_process();
    const sim::Cpu& cpu = process.tasks.front()->cpu();
    out.push_back({cpu.snapshot(), cpu.cycles(), cpu.instructions(),
                   cpu.last_run_steps(), cpu.call_depth(), cpu.state(),
                   process.state, process.output, engine.summary()});
    if (stop.reason == StopReason::kAllDone) break;
  }
  return out;
}

/// The fast path (run_fast between due windows) against the per-step
/// reference (step() every instruction). Returns the faults delivered, so
/// callers can check the plan was not vacuous.
u64 expect_fast_matches_step(const sim::Program& program,
                             const Engine::Config& config, u64 seed = 7) {
  const auto fast = run_checkpoints(program, config, seed, false);
  const auto ref = run_checkpoints(program, config, seed, true);
  EXPECT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < std::min(fast.size(), ref.size()); ++i) {
    const Checkpoint& a = fast[i];
    const Checkpoint& b = ref[i];
    EXPECT_EQ(a.regs.regs, b.regs.regs) << "call " << i;
    EXPECT_EQ(a.regs.pc, b.regs.pc) << "call " << i;
    EXPECT_EQ(a.regs.n, b.regs.n) << "call " << i;
    EXPECT_EQ(a.regs.z, b.regs.z) << "call " << i;
    EXPECT_EQ(a.regs.c, b.regs.c) << "call " << i;
    EXPECT_EQ(a.regs.v, b.regs.v) << "call " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "call " << i;
    EXPECT_EQ(a.instructions, b.instructions) << "call " << i;
    EXPECT_EQ(a.last_run_steps, b.last_run_steps) << "call " << i;
    EXPECT_EQ(a.call_depth, b.call_depth) << "call " << i;
    EXPECT_EQ(a.state, b.state) << "call " << i;
    EXPECT_EQ(a.process, b.process) << "call " << i;
    EXPECT_EQ(a.output, b.output) << "call " << i;
    EXPECT_EQ(a.summary.injected, b.summary.injected) << "call " << i;
    EXPECT_EQ(a.summary.guess_attempts, b.summary.guess_attempts);
    EXPECT_EQ(a.summary.guess_successes, b.summary.guess_successes);
    if (::testing::Test::HasFailure()) break;
  }
  return fast.empty() ? 0 : fast.back().summary.total_injected();
}

sim::Program pacstack_worker() {
  const auto ir = workload::make_worker_ir(/*requests=*/20,
                                           /*jitter_seed=*/99);
  return compiler::compile_ir(ir, {.scheme = compiler::Scheme::kPacStack});
}

/// A 3-deep PA-instrumented call tree with locals and output: bl/ret,
/// pacia/autia and loads/stores dominate, as in the kernel model's workers.
sim::Program pacstack_call_tree() {
  compiler::IrBuilder b;
  const auto leaf = b.begin_function("leaf");
  b.compute(4);
  const auto mid = b.begin_function("mid", 32);
  b.store_local(0, 7);
  b.call(leaf, 8);
  b.load_local(0);
  const auto outer = b.begin_function("outer");
  b.call(mid, 8);
  const auto entry = b.begin_function("entry");
  b.call(outer, 60);
  b.write_int(4242);
  return compiler::compile_ir(b.build(entry),
                              {.scheme = compiler::Scheme::kPacStack});
}

/// A CPU-level fault that is delivered but changes nothing: a store to
/// unmapped address 0 is dropped. Lets a plan carry several faults without
/// the first one killing the worker.
PlannedFault harmless_at(u64 at_instr, u64 min_depth = 0) {
  return {.at_instr = at_instr, .min_depth = min_depth,
          .kind = FaultKind::kStoreWord};
}

TEST(FastPathDelivery, CallTreeWithoutFaults) {
  // An attached engine that plans nothing: run_fast covers every
  // instruction. Each machine seed draws different keys and canary.
  const sim::Program program = pacstack_call_tree();
  for (u64 seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(expect_fast_matches_step(program, {}, seed), 0U);
    if (HasFailure()) return;
  }
}

TEST(FastPathDelivery, CountTriggeredFaults) {
  const sim::Program program = pacstack_worker();
  EXPECT_EQ(expect_fast_matches_step(
                program, {.plan = {{.at_instr = 300,
                                    .kind = FaultKind::kInstrSkip}}}),
            1U);
  EXPECT_EQ(expect_fast_matches_step(
                program, {.plan = {{.at_instr = 1'000,
                                    .kind = FaultKind::kRetSlotBitflip,
                                    .payload = 0x1d}}}),
            1U);
  // Back-to-back and same-instant faults, and one at instruction 0.
  EXPECT_EQ(expect_fast_matches_step(
                program, {.plan = {harmless_at(0), harmless_at(100),
                                   harmless_at(101), harmless_at(101),
                                   harmless_at(1'300)}}),
            5U);
}

TEST(FastPathDelivery, DepthGatedAndGraceExpiredFaults) {
  const sim::Program program = pacstack_worker();
  // min_depth 3 waits for the call depth; min_depth 60 is never reached,
  // so that fault fires when kDepthGrace expires.
  EXPECT_EQ(expect_fast_matches_step(
                program, {.plan = {{.at_instr = 400, .min_depth = 3,
                                    .kind = FaultKind::kInstrSkip}}}),
            1U);
  EXPECT_EQ(expect_fast_matches_step(
                program, {.plan = {harmless_at(500, /*min_depth=*/3),
                                   harmless_at(900, /*min_depth=*/60),
                                   {.at_instr = 1'000, .min_depth = 60,
                                    .kind = FaultKind::kRetSlotBitflip,
                                    .payload = 0x2a}}}),
            3U);
}

TEST(FastPathDelivery, DeferredChainCorrupt) {
  // The guess waits for min_depth, then for a bl/blr; every 2-bit value
  // (one survives, three crash) takes the same path on both dispatchers.
  const sim::Program program = pacstack_worker();
  u64 guesses = 0;
  for (u64 payload = 0; payload < 4; ++payload) {
    guesses += expect_fast_matches_step(
        program, {.plan = {{.at_instr = 800, .min_depth = 2,
                            .kind = FaultKind::kChainCorrupt,
                            .payload = payload}},
                  .guess_window = 2});
  }
  EXPECT_EQ(guesses, 4U);
}

TEST(FastPathDelivery, PcTriggeredStoreWord) {
  // A count-triggered fault first, then a pc-triggered store at the third
  // request's handler entry: the hart must fall back to step() for the
  // pc-triggered fault, counting every execution of its PC.
  const sim::Program program = pacstack_worker();
  const u64 entry = program.symbol("ngx$handle_request");
  EXPECT_EQ(expect_fast_matches_step(
                program,
                {.plan = {harmless_at(150),
                          // at_instr is ignored once at_pc is set; a fast
                          // path that honoured it would miss executions.
                          {.at_instr = 50'000,
                           .kind = FaultKind::kStoreWord,
                           .payload = 0x1234,
                           .at_pc = entry,
                           .occurrence = 3,
                           .addr = 8,
                           .sp_rel = true}}}),
            2U);
}

TEST(FastPathDelivery, LazyRandomPlans) {
  // Lazy plans of every shape the workloads draw: CPU-only, kernel-only
  // and mixed kinds, baseline or burst-only.
  const sim::Program program = pacstack_worker();
  const std::vector<FaultKind> kind_sets[] = {
      {FaultKind::kInstrSkip, FaultKind::kRetSlotBitflip},
      {FaultKind::kBudgetExhaust},
      {},
  };
  for (u64 seed = 1; seed <= 4; ++seed) {
    for (const auto& kinds : kind_sets) {
      PlanConfig config;
      config.seed = seed;
      config.horizon = 200'000;
      config.kinds = kinds;
      if (seed % 2 == 0) {
        config.mean_interval = 1'500;
      } else {
        config.burst_len = 200'000;
        config.burst_mean_interval = 2'500;
      }
      (void)expect_fast_matches_step(program, {.draw = config});
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace acs::inject
