// Slice accounting of Machine::run's round-robin scheduler.
//
// The budget stop is slice-granular, and the round-robin cursor advances
// once per time slice, including the slices a task runs while it is the
// only runnable one. The cursor carried over from such a stretch decides
// which task runs first once a second one appears, so these tests pin
// whole interleavings: output order, cycles, retired instructions and the
// recorder's context-switch count, at two slice lengths.
#include "kernel/machine.h"

#include <gtest/gtest.h>

#include <vector>

#include "kernel/syscalls.h"
#include "obs/recorder.h"
#include "sim/assembler.h"

namespace acs::kernel {
namespace {

using sim::Assembler;
using sim::Reg;

u16 num(Syscall call) { return static_cast<u16>(call); }

/// Nops run by main before it spawns the worker. With the three spawn
/// instructions, main runs 100 instructions alone: 2 slices of 64 or 8 of
/// 13. Both counts are even, so the carried-over cursor picks main first;
/// a scheduler that advanced it once for the whole stretch would pick the
/// worker.
constexpr u64 kStretchNops = 97;

/// Emits a thread body: `rounds` times, spin `spin` iterations, then write
/// `tag + round` (rounds count down).
void emit_rounds(Assembler& as, const std::string& name, u64 rounds, u64 spin,
                 u64 tag) {
  as.mov_imm(Reg::kX3, rounds);
  as.label(name + "_round");
  as.mov_imm(Reg::kX4, spin);
  as.label(name + "_spin");
  as.sub_imm(Reg::kX4, Reg::kX4, 1);
  as.cbnz(Reg::kX4, name + "_spin");
  as.add_imm(Reg::kX0, Reg::kX3, static_cast<i64>(tag));
  as.svc(num(Syscall::kWriteInt));
  as.sub_imm(Reg::kX3, Reg::kX3, 1);
  as.cbnz(Reg::kX3, name + "_round");
}

/// Main runs kStretchNops nops alone, spawns a worker, and both then
/// alternate spin loops with writes; main joins the worker and exits.
sim::Program two_thread_program() {
  Assembler as;
  as.function("main");
  for (u64 i = 0; i < kStretchNops; ++i) as.nop();
  as.mov_label(Reg::kX0, "worker");
  as.mov_imm(Reg::kX1, 0);
  as.svc(num(Syscall::kThreadCreate));
  emit_rounds(as, "main", /*rounds=*/4, /*spin=*/30, /*tag=*/100);
  as.mov_imm(Reg::kX0, 1);
  as.svc(num(Syscall::kThreadJoin));
  as.mov_imm(Reg::kX0, 0);
  as.svc(num(Syscall::kExit));
  as.function("worker");
  emit_rounds(as, "worker", /*rounds=*/4, /*spin=*/45, /*tag=*/200);
  as.svc(num(Syscall::kThreadExit));
  return as.assemble();
}

/// Everything a run's interleaving decides.
struct Outcome {
  std::vector<u64> output;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 ctx_switches = 0;
};

Outcome outcome_of(const Machine& machine, const obs::Recorder& recorder) {
  const Process& init = machine.init_process();
  return Outcome{init.output, init.cycles(), init.instructions(),
                 recorder.metrics().counter("kernel.ctx_switch")};
}

void expect_outcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.output, want.output);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.ctx_switches, want.ctx_switches);
}

/// The pinned interleaving of two_thread_program() at each slice length,
/// run to completion without a breakpoint.
Outcome pinned_two_thread(u64 time_slice) {
  if (time_slice == 64) {
    return Outcome{{104, 204, 103, 203, 102, 202, 101, 201}, 1455, 747, 17};
  }
  return Outcome{{104, 204, 103, 102, 203, 101, 202, 201}, 1455, 747, 43};
}

class SchedulerSlice : public ::testing::TestWithParam<u64> {};

TEST_P(SchedulerSlice, BudgetStopIsSliceGranular) {
  Assembler as;
  as.function("main");
  as.label("loop");
  as.add_imm(Reg::kX0, Reg::kX0, 1);
  as.b("loop");
  const sim::Program program = as.assemble();
  MachineOptions options;
  options.time_slice = GetParam();
  Machine machine(program, options);

  const Stop stop = machine.run(100);
  EXPECT_EQ(stop.reason, StopReason::kMaxInstructions);
  EXPECT_EQ(stop.pid, 1U);
  EXPECT_EQ(stop.tid, 0U);
  const u64 slices = (100 + GetParam() - 1) / GetParam();
  EXPECT_EQ(machine.total_instructions(), slices * GetParam());
  if (GetParam() == 64) {
    EXPECT_EQ(machine.total_instructions(), 128U);
  }

  // A second call starts a fresh budget, again rounded up to a slice.
  EXPECT_EQ(machine.run(1).reason, StopReason::kMaxInstructions);
  EXPECT_EQ(machine.total_instructions(), (slices + 1) * GetParam());
}

// The last-scheduled task outlives a run() call: a lone task that simply
// continues in the next call is switched to once, not once per call.
TEST_P(SchedulerSlice, RepeatedRunsOfALoneTaskSwitchOnce) {
  Assembler as;
  as.function("main");
  as.label("loop");
  as.add_imm(Reg::kX0, Reg::kX0, 1);
  as.b("loop");
  const sim::Program program = as.assemble();
  obs::Recorder recorder;
  MachineOptions options;
  options.time_slice = GetParam();
  options.recorder = &recorder;
  Machine machine(program, options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(machine.run(100).reason, StopReason::kMaxInstructions);
  }
  EXPECT_EQ(recorder.metrics().counter("kernel.ctx_switch"), 1U);
}

TEST_P(SchedulerSlice, LoneStretchCarriesTheCursorIntoTheInterleaving) {
  const sim::Program program = two_thread_program();
  obs::Recorder recorder;
  MachineOptions options;
  options.time_slice = GetParam();
  options.recorder = &recorder;
  Machine machine(program, options);
  EXPECT_EQ(machine.run().reason, StopReason::kAllDone);
  EXPECT_EQ(machine.init_process().state, ProcessState::kExited);
  expect_outcome(outcome_of(machine, recorder), pinned_two_thread(GetParam()));
}

TEST_P(SchedulerSlice, BreakpointOnASliceBoundary) {
  const sim::Program program = two_thread_program();
  // Main's nop at instruction index time_slice: the first instruction of its
  // second slice.
  const u64 bp = program.symbols.at("main") + GetParam() * sim::kInstrBytes;
  obs::Recorder recorder;
  MachineOptions options;
  options.time_slice = GetParam();
  options.recorder = &recorder;
  Machine machine(program, options);
  machine.add_global_breakpoint(bp);

  const Stop stop = machine.run();
  EXPECT_EQ(stop.reason, StopReason::kBreakpoint);
  EXPECT_EQ(stop.pid, 1U);
  EXPECT_EQ(stop.tid, 0U);
  sim::Cpu& cpu = machine.init_process().tasks.front()->cpu();
  EXPECT_EQ(cpu.pc(), bp);
  EXPECT_EQ(cpu.instructions(), GetParam());

  cpu.resume();
  machine.clear_global_breakpoints();
  EXPECT_EQ(machine.run().reason, StopReason::kAllDone);
  EXPECT_EQ(machine.init_process().state, ProcessState::kExited);
  // The reporting step costs the stop an extra slice, so after the spawn
  // the worker runs first; output, cycles and instructions still match the
  // run without the breakpoint, and the switch count pins the interleaving.
  // The second run() resumes main, the task the first one stopped in, so
  // its first slice is no switch.
  Outcome want = pinned_two_thread(GetParam());
  want.ctx_switches = GetParam() == 64 ? 19 : 45;
  expect_outcome(outcome_of(machine, recorder), want);
}

INSTANTIATE_TEST_SUITE_P(TimeSlice, SchedulerSlice, ::testing::Values(64, 13),
                         [](const ::testing::TestParamInfo<u64>& param) {
                           return "slice" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace acs::kernel
