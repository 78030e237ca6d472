#include "kernel/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "inject/engine.h"
#include "kernel/syscalls.h"
#include "sim/assembler.h"

namespace acs::kernel {
namespace {

using sim::Assembler;
using sim::Reg;

sim::Program build(const std::function<void(Assembler&)>& body) {
  Assembler as;
  body(as);
  return as.assemble();
}

u16 num(Syscall call) { return static_cast<u16>(call); }

TEST(Machine, RunsToExitWithCode) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 7);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().exit_code, 7U);
}

TEST(Machine, WriteIntCollectsOutput) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 11);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 22);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  machine.run();
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{11, 22}));
}

TEST(Machine, GetPidAndTid) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.svc(num(Syscall::kGetPid));
    as.svc(num(Syscall::kWriteInt));
    as.svc(num(Syscall::kGetTid));
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  machine.run();
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{1, 0}));
}

TEST(Machine, FaultKillsProcess) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX30, 0x666);  // not a mapped/executable address
    as.ret();
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kKilled);
  EXPECT_EQ(machine.init_process().kill_fault.kind,
            sim::FaultKind::kTranslation);
}

TEST(Machine, AbortSyscallReportsStackCheck) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.svc(num(Syscall::kAbort));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kKilled);
  EXPECT_EQ(machine.init_process().kill_fault.kind,
            sim::FaultKind::kStackCheck);
}

TEST(Machine, ForkDuplicatesProcess) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.svc(num(Syscall::kFork));
    as.svc(num(Syscall::kWriteInt));  // child: 0, parent: child pid
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  machine.run();
  ASSERT_EQ(machine.processes().size(), 2U);
  std::vector<u64> all;
  for (const auto& process : machine.processes()) {
    EXPECT_EQ(process->state, ProcessState::kExited);
    all.insert(all.end(), process->output.begin(), process->output.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<u64>{0, 2}));
}

TEST(Machine, ForkInheritsKeysExecGetsFresh) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.svc(num(Syscall::kFork));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  machine.run();
  const u64 spawned = machine.spawn_process();  // fresh exec image
  ASSERT_EQ(machine.processes().size(), 3U);
  const auto tag = [&](u64 pid) {
    return machine.find_process(pid)->pauth().raw_tag(crypto::KeyId::kIA, 42,
                                                      43);
  };
  EXPECT_EQ(tag(1), tag(2));     // fork: inherited keys (Section 4.3 premise)
  EXPECT_NE(tag(1), tag(spawned));  // exec: regenerated keys
}

TEST(Machine, KeyPerturbInvalidatesArets) {
  // An aret signed and authenticated before a delivered kKeyPerturb sits in
  // the hart's IA tag memo; after the perturb the same authentication must
  // run under the new keys and fail.
  constexpr u64 kRet = 0x1'2340;
  constexpr u64 kChain = 0x77;
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(sim::kLr, kRet);
    as.mov_imm(sim::kCr, kChain);
    as.pacia(sim::kLr, sim::kCr);  // aret under the original keys
    as.mov(Reg::kX0, sim::kLr);
    as.autia(Reg::kX0, sim::kCr);
    as.svc(num(Syscall::kWriteInt));  // kRet: verifies before the perturb
    as.svc(num(Syscall::kYield));     // the perturb lands at this boundary
    as.mov(Reg::kX0, sim::kLr);
    as.autia(Reg::kX0, sim::kCr);
    as.svc(num(Syscall::kWriteInt));  // poisoned: stale under the new keys
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  inject::Engine engine({.plan = {{.at_instr = 7,
                                   .kind = inject::FaultKind::kKeyPerturb,
                                   .payload = 0xdead}}});
  MachineOptions options;
  options.injector = &engine;
  Machine machine(program, options);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(engine.summary().injected[static_cast<std::size_t>(
                inject::FaultKind::kKeyPerturb)],
            1U);
  EXPECT_EQ(machine.init_process().output,
            (std::vector<u64>{
                kRet, kRet | (u64{1} << pa::VaLayout::error_bit())}));
}

TEST(Machine, ThreadsRunAndReseedChainRegister) {
  const auto thread_body = [](Assembler& as) {
    as.function("main");
    as.mov_label(Reg::kX0, "worker");
    as.mov_imm(Reg::kX1, 0);
    as.svc(num(Syscall::kThreadCreate));
    as.mov_label(Reg::kX0, "worker");
    as.mov_imm(Reg::kX1, 0);
    as.svc(num(Syscall::kThreadCreate));
    as.work(2000);  // let the workers run
    as.svc(num(Syscall::kYield));
    as.work(2000);
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("worker");
    as.mov(Reg::kX0, sim::kCr);  // observe the initial CR value
    as.svc(num(Syscall::kWriteInt));
    as.svc(num(Syscall::kThreadExit));
  };

  MachineOptions with_reseed;
  with_reseed.reseed_threads = true;
  Machine m1(build(thread_body), with_reseed);
  m1.run();
  auto out1 = m1.init_process().output;
  std::sort(out1.begin(), out1.end());
  // Section 4.3: CR seeded with the thread id -> chains are disjoint.
  EXPECT_EQ(out1, (std::vector<u64>{1, 2}));

  MachineOptions no_reseed;
  no_reseed.reseed_threads = false;
  Machine m2(build(thread_body), no_reseed);
  m2.run();
  auto out2 = m2.init_process().output;
  std::sort(out2.begin(), out2.end());
  EXPECT_EQ(out2, (std::vector<u64>{0, 0}));
}

TEST(Machine, ThreadJoinBlocksUntilExit) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_label(Reg::kX0, "worker");
    as.mov_imm(Reg::kX1, 0);
    as.svc(num(Syscall::kThreadCreate));
    as.mov_imm(Reg::kX0, 1);  // join tid 1
    as.svc(num(Syscall::kThreadJoin));
    as.mov_imm(Reg::kX0, 2);  // written strictly after the worker's 1
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("worker");
    as.work(500);
    as.work(500);
    as.work(500);
    as.mov_imm(Reg::kX0, 1);
    as.svc(num(Syscall::kWriteInt));
    as.svc(num(Syscall::kThreadExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  // Join guarantees ordering, not just completion.
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{1, 2}));
}

TEST(Machine, ThreadJoinOnExitedThreadReturnsImmediately) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_label(Reg::kX0, "worker");
    as.mov_imm(Reg::kX1, 0);
    as.svc(num(Syscall::kThreadCreate));
    as.work(5000);
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 1);
    as.svc(num(Syscall::kThreadJoin));  // worker long gone
    as.svc(num(Syscall::kWriteInt));    // join result (0) in X0
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("worker");
    as.svc(num(Syscall::kThreadExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{0}));
}

TEST(Machine, ThreadJoinRejectsBadTid) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 0);  // self-join
    as.svc(num(Syscall::kThreadJoin));
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 7);  // nonexistent tid
    as.svc(num(Syscall::kThreadJoin));
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().output,
            (std::vector<u64>{static_cast<u64>(-1), static_cast<u64>(-1)}));
}

TEST(Machine, SigreturnFullRegisterBindingCatchesDataForgery) {
  // Appendix B's closing suggestion: binding only PC/CR leaves data
  // registers forgeable in the signal frame; binding all registers via
  // pacga catches it.
  const auto body = [](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, kSigUsr1);
    as.mov_label(Reg::kX1, "handler");
    as.svc(num(Syscall::kSigaction));
    as.mov_imm(Reg::kX19, 5);  // the value the attacker wants to corrupt
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1);
    as.svc(num(Syscall::kKill));
    as.svc(num(Syscall::kYield));
    as.mov(Reg::kX0, Reg::kX19);  // observe X19 after the handler
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("handler");
    // Forge the saved X19 in the signal frame (a *data* register).
    as.mov_imm(Reg::kX9, 0x666);
    as.str(Reg::kX9, Reg::kSp,
           static_cast<i64>(SignalFrame::kRegsOffset) +
               8 * static_cast<i64>(Reg::kX19));
    as.ret();
    as.function("__sigtramp");
    as.svc(num(Syscall::kSigreturn));
    as.hlt();
  };

  MachineOptions pc_cr_only;
  pc_cr_only.sigreturn_defense = true;
  pc_cr_only.sigreturn_bind_all_regs = false;
  Machine weak(build(body), pc_cr_only);
  EXPECT_EQ(weak.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(weak.init_process().output, (std::vector<u64>{0x666}));  // forged

  MachineOptions bind_all;
  bind_all.sigreturn_defense = true;
  bind_all.sigreturn_bind_all_regs = true;
  Machine strong(build(body), bind_all);
  EXPECT_EQ(strong.run_to_completion(), ProcessState::kKilled);
  EXPECT_EQ(strong.init_process().kill_fault.kind,
            sim::FaultKind::kPacAuthFailure);
}

TEST(Machine, ThreadEntryMustBeFunction) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 0x9999);  // not a function entry
    as.svc(num(Syscall::kThreadCreate));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kKilled);
  EXPECT_EQ(machine.init_process().kill_fault.kind, sim::FaultKind::kCfi);
}

TEST(Machine, SignalDeliveryAndReturn) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, kSigUsr1);
    as.mov_label(Reg::kX1, "handler");
    as.svc(num(Syscall::kSigaction));
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1);
    as.svc(num(Syscall::kKill));  // signal self
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 2);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("handler");
    as.mov_imm(Reg::kX0, 1);
    as.svc(num(Syscall::kWriteInt));
    as.ret();  // into __sigtramp
    as.function("__sigtramp");
    as.svc(num(Syscall::kSigreturn));
    as.hlt();
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{1, 2}));
}

TEST(Machine, SignalWithoutHandlerIgnored) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1);
    as.svc(num(Syscall::kKill));
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 3);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{3}));
}

TEST(Machine, ForgedSigreturnFrameKillsWithDefense) {
  // The handler overwrites the saved PC in its own signal frame; the
  // Appendix B validation must catch it.
  const auto body = [](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, kSigUsr1);
    as.mov_label(Reg::kX1, "handler");
    as.svc(num(Syscall::kSigaction));
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1);
    as.svc(num(Syscall::kKill));
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("handler");
    // Forge frame->pc (offset 0 from SP in a leaf handler).
    as.mov_label(Reg::kX9, "payload");
    as.str(Reg::kX9, Reg::kSp, 0);
    as.ret();
    as.function("payload");
    as.mov_imm(Reg::kX0, 0xE71);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("__sigtramp");
    as.svc(num(Syscall::kSigreturn));
    as.hlt();
  };

  MachineOptions with_defense;
  with_defense.sigreturn_defense = true;
  Machine defended(build(body), with_defense);
  EXPECT_EQ(defended.run_to_completion(), ProcessState::kKilled);
  EXPECT_EQ(defended.init_process().kill_fault.kind,
            sim::FaultKind::kPacAuthFailure);

  MachineOptions no_defense;
  no_defense.sigreturn_defense = false;
  Machine exposed(build(body), no_defense);
  EXPECT_EQ(exposed.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(std::count(exposed.init_process().output.begin(),
                       exposed.init_process().output.end(), 0xE71U),
            1);
}

TEST(Machine, NestedSignalsValidateChain) {
  // A second signal delivered while the first handler runs: the Appendix B
  // chain must track both frames and unwind them in order.
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, kSigUsr1);
    as.mov_label(Reg::kX1, "outer_handler");
    as.svc(num(Syscall::kSigaction));
    as.mov_imm(Reg::kX0, kSigUsr1 + 1);
    as.mov_label(Reg::kX1, "inner_handler");
    as.svc(num(Syscall::kSigaction));
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1);
    as.svc(num(Syscall::kKill));
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 4);
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("outer_handler");
    as.mov_imm(Reg::kX0, 1);
    as.svc(num(Syscall::kWriteInt));
    as.svc(num(Syscall::kGetPid));
    as.mov_imm(Reg::kX1, kSigUsr1 + 1);
    as.svc(num(Syscall::kKill));  // nested signal
    as.svc(num(Syscall::kYield));
    as.mov_imm(Reg::kX0, 3);
    as.svc(num(Syscall::kWriteInt));
    as.ret();
    as.function("inner_handler");
    as.mov_imm(Reg::kX0, 2);
    as.svc(num(Syscall::kWriteInt));
    as.ret();
    as.function("__sigtramp");
    as.svc(num(Syscall::kSigreturn));
    as.hlt();
  });
  MachineOptions options;
  options.sigreturn_defense = true;
  Machine machine(program, options);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{1, 2, 3, 4}));
}

TEST(Machine, CanarySlotInitialized) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  Machine machine(program);
  EXPECT_NE(machine.init_process().mem.raw_read_u64(kCanarySlot), 0U);
}

TEST(Machine, DataInitApplied) {
  auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
  });
  program.data_init.emplace_back(kDataBase + 0x100, 0xfeedULL);
  Machine machine(program);
  EXPECT_EQ(machine.init_process().mem.raw_read_u64(kDataBase + 0x100),
            0xfeedU);
}

TEST(Machine, MaxInstructionBudget) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.label("spin");
    as.b("spin");
  });
  Machine machine(program);
  const auto stop = machine.run(1000);
  EXPECT_EQ(stop.reason, StopReason::kMaxInstructions);
}

TEST(Machine, CrashTraceCapturesFaultingTail) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 1);
    as.mov_imm(Reg::kX1, 2);
    as.mov_imm(Reg::kX30, 0x666);  // poison LR
    as.ret();                      // faults on fetch
  });
  MachineOptions options;
  options.trace_depth = 8;
  Machine machine(program, options);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kKilled);
  const auto& trace = machine.init_process().crash_trace;
  ASSERT_FALSE(trace.empty());
  // The last traced instruction is the faulting ret.
  EXPECT_NE(trace.back().find("ret"), std::string::npos);
}

TEST(Machine, TraceDisabledByDefault) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX30, 0x666);
    as.ret();
  });
  Machine machine(program);
  machine.run();
  EXPECT_TRUE(machine.init_process().crash_trace.empty());
}

TEST(Machine, HltExitsProcess) {
  const auto program = build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 4);
    as.hlt();
  });
  Machine machine(program);
  EXPECT_EQ(machine.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(machine.init_process().exit_code, 4U);
}

/// A workload with calls, PA-instrumented returns, data writes and output,
/// so machine-fork equivalence covers the interesting state.
sim::Program fork_workload() {
  return build([](Assembler& as) {
    as.function("main");
    as.mov_imm(Reg::kX0, 6);
    as.bl("fn");
    as.svc(num(Syscall::kWriteInt));
    as.mov_imm(Reg::kX1, kDataBase + 0x200);
    as.str(Reg::kX0, Reg::kX1, 0);
    as.mov_imm(Reg::kX0, 0);
    as.svc(num(Syscall::kExit));
    as.function("fn");
    as.pacia(sim::kLr, Reg::kSp);
    as.str(sim::kLr, Reg::kSp, -16, sim::AddrMode::kPreIndex);
    as.lsl_imm(Reg::kX0, Reg::kX0, 3);
    as.ldr(sim::kLr, Reg::kSp, 16, sim::AddrMode::kPostIndex);
    as.retaa();
  });
}

TEST(Machine, ForkOfPristineMasterMatchesFreshMachine) {
  const auto program = fork_workload();
  MachineOptions options;
  options.seed = 42;

  Machine fresh(program, options);
  const Machine master(program, MachineOptions{});  // different seed: 1
  Machine fork(master, options);

  EXPECT_EQ(fresh.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(fork.run_to_completion(), ProcessState::kExited);
  // Bit-for-bit equivalent execution: same output, same counters, same
  // canary and same data writes, even though the fork's seed differs from
  // its master's.
  EXPECT_EQ(fork.init_process().output, fresh.init_process().output);
  EXPECT_EQ(fork.init_process().cycles(), fresh.init_process().cycles());
  EXPECT_EQ(fork.init_process().instructions(),
            fresh.init_process().instructions());
  EXPECT_EQ(fork.init_process().mem.raw_read_u64(kCanarySlot),
            fresh.init_process().mem.raw_read_u64(kCanarySlot));
  EXPECT_EQ(fork.init_process().mem.raw_read_u64(kDataBase + 0x200),
            fresh.init_process().mem.raw_read_u64(kDataBase + 0x200));
}

TEST(Machine, ForkWritesAreIsolatedFromMasterAndSiblings) {
  auto program = fork_workload();
  program.data_init.emplace_back(kDataBase + 0x200, 0x1111ULL);
  const Machine master(program, MachineOptions{});
  const u64 pristine = master.init_process().mem.raw_read_u64(
      kDataBase + 0x200);
  EXPECT_EQ(pristine, 0x1111U);

  Machine first(master, MachineOptions{});
  EXPECT_EQ(first.run_to_completion(), ProcessState::kExited);
  // The run overwrote the slot in the fork...
  EXPECT_EQ(first.init_process().mem.raw_read_u64(kDataBase + 0x200), 48U);
  // ...but the master still sees its pristine image...
  EXPECT_EQ(master.init_process().mem.raw_read_u64(kDataBase + 0x200),
            0x1111U);
  // ...and a later fork starts from the pristine image, not the sibling's.
  Machine second(master, MachineOptions{});
  EXPECT_EQ(second.init_process().mem.raw_read_u64(kDataBase + 0x200),
            0x1111U);
  EXPECT_EQ(second.run_to_completion(), ProcessState::kExited);
  EXPECT_EQ(second.init_process().output, first.init_process().output);
}

TEST(Machine, ForkSharesPagesUntilWritten) {
  const auto program = fork_workload();
  const Machine master(program, MachineOptions{});
  Machine fork(master, MachineOptions{});
  // Construction privatises only the canary page (plus nothing else): code,
  // data and stacks stay loaned from the master.
  const u64 before = fork.init_process().mem.private_pages();
  EXPECT_LE(before, 2U);
  EXPECT_EQ(fork.run_to_completion(), ProcessState::kExited);
  EXPECT_GT(fork.init_process().mem.private_pages(), before);
}

}  // namespace
}  // namespace acs::kernel
