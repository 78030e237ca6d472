#include "sim/cpu.h"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

#include "common/rng.h"
#include "sim/assembler.h"

namespace acs::sim {
namespace {

constexpr u64 kCodeBase = 0x1'0000;
constexpr u64 kDataBase = 0x10'0000;
constexpr u64 kStackTop = 0x20'1000;

/// Harness: assemble a program, map code (RX), data and a stack, run.
class CpuHarness {
 public:
  explicit CpuHarness(const std::function<void(Assembler&)>& body,
                      unsigned va_size = 39, bool fpac = false)
      : pauth_(make_keys(), pa::VaLayout{va_size}, "siphash", fpac) {
    Assembler as(kCodeBase);
    body(as);
    program_ = as.assemble();
    mem_.map(kCodeBase, program_.size_bytes() + 64, kPermRx, "code");
    mem_.map(kDataBase, 0x1000, kPermRw, "data");
    mem_.map(kStackTop - 0x1000, 0x1000, kPermRw, "stack");
    cpu_ = std::make_unique<Cpu>(program_, mem_, pauth_);
    cpu_->set_reg(Reg::kSp, kStackTop);
  }

  Cpu& cpu() { return *cpu_; }
  AddressSpace& mem() { return mem_; }
  const pa::PointerAuth& pauth() { return pauth_; }
  const Program& program() { return program_; }

 private:
  static crypto::KeySet make_keys() {
    Rng rng(77);
    return crypto::random_key_set(rng);
  }

  pa::PointerAuth pauth_;
  Program program_;
  AddressSpace mem_;
  std::unique_ptr<Cpu> cpu_;
};

TEST(Cpu, ArithmeticAndMoves) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 10);
    as.mov_imm(Reg::kX1, 3);
    as.add(Reg::kX2, Reg::kX0, Reg::kX1);   // 13
    as.sub_imm(Reg::kX3, Reg::kX2, 4);      // 9
    as.eor(Reg::kX4, Reg::kX0, Reg::kX1);   // 9
    as.and_(Reg::kX5, Reg::kX0, Reg::kX1);  // 2
    as.orr(Reg::kX6, Reg::kX0, Reg::kX1);   // 11
    as.lsl_imm(Reg::kX7, Reg::kX1, 4);      // 48
    as.lsr_imm(Reg::kX8, Reg::kX0, 1);      // 5
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX2), 13U);
  EXPECT_EQ(h.cpu().reg(Reg::kX3), 9U);
  EXPECT_EQ(h.cpu().reg(Reg::kX4), 9U);
  EXPECT_EQ(h.cpu().reg(Reg::kX5), 2U);
  EXPECT_EQ(h.cpu().reg(Reg::kX6), 11U);
  EXPECT_EQ(h.cpu().reg(Reg::kX7), 48U);
  EXPECT_EQ(h.cpu().reg(Reg::kX8), 5U);
}

TEST(Cpu, XzrReadsZeroIgnoresWrites) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kXzr, 55);
    as.mov(Reg::kX0, Reg::kXzr);
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 0U);
  EXPECT_EQ(h.cpu().reg(Reg::kXzr), 0U);
}

struct CondCase {
  Cond cond;
  i64 lhs;
  i64 rhs;
  bool taken;
};

class CpuCondTest : public ::testing::TestWithParam<CondCase> {};

TEST_P(CpuCondTest, ConditionalBranch) {
  const CondCase& c = GetParam();
  CpuHarness h([&](Assembler& as) {
    as.mov_imm(Reg::kX0, static_cast<u64>(c.lhs));
    as.mov_imm(Reg::kX1, static_cast<u64>(c.rhs));
    as.cmp(Reg::kX0, Reg::kX1);
    as.b_cond(c.cond, "taken");
    as.mov_imm(Reg::kX2, 1);  // fallthrough
    as.hlt();
    as.label("taken");
    as.mov_imm(Reg::kX2, 2);
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX2), c.taken ? 2U : 1U);
}

// Prints a case as e.g. "Lt_m1_0_taken": both its test name and its
// GetParam() text, so ctest names are stable. gtest's default would print
// CondCase's raw bytes, padding included.
void PrintTo(const CondCase& c, std::ostream* os) {
  static constexpr const char* kCondNames[] = {"Eq", "Ne", "Lt", "Ge",
                                               "Gt", "Le", "Lo", "Hs"};
  const auto operand = [os](i64 v) {
    if (v < 0) *os << 'm';
    *os << (v < 0 ? -v : v);
  };
  *os << kCondNames[static_cast<unsigned>(c.cond)] << '_';
  operand(c.lhs);
  *os << '_';
  operand(c.rhs);
  *os << (c.taken ? "_taken" : "_fallthrough");
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, CpuCondTest,
    ::testing::Values(CondCase{Cond::kEq, 5, 5, true},
                      CondCase{Cond::kEq, 5, 6, false},
                      CondCase{Cond::kNe, 5, 6, true},
                      CondCase{Cond::kNe, 5, 5, false},
                      CondCase{Cond::kLt, -1, 0, true},
                      CondCase{Cond::kLt, 1, 0, false},
                      CondCase{Cond::kGe, 3, 3, true},
                      CondCase{Cond::kGe, 2, 3, false},
                      CondCase{Cond::kGt, 4, 3, true},
                      CondCase{Cond::kGt, 3, 3, false},
                      CondCase{Cond::kLe, 3, 3, true},
                      CondCase{Cond::kLe, 4, 3, false},
                      CondCase{Cond::kLo, 1, 2, true},
                      CondCase{Cond::kLo, 2, 1, false},
                      CondCase{Cond::kHs, 2, 2, true},
                      CondCase{Cond::kHs, 1, 2, false}),
    ::testing::PrintToStringParamName());

TEST(Cpu, LoadStoreAddressingModes) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, kDataBase);
    as.mov_imm(Reg::kX1, 0x1111);
    as.str(Reg::kX1, Reg::kX0, 8);                         // offset
    as.ldr(Reg::kX2, Reg::kX0, 8);
    as.mov_imm(Reg::kX3, 0x2222);
    as.str(Reg::kX3, Reg::kX0, 16, AddrMode::kPreIndex);   // x0 += 16 first
    as.ldr(Reg::kX4, Reg::kX0, 0);
    as.mov_imm(Reg::kX5, 0x3333);
    as.str(Reg::kX5, Reg::kX0, 8, AddrMode::kPostIndex);   // store, then += 8
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX2), 0x1111U);
  EXPECT_EQ(h.cpu().reg(Reg::kX4), 0x2222U);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), kDataBase + 24);
  // The post-index store wrote at the pre-increment address (kDataBase+16),
  // overwriting the pre-index store's value.
  EXPECT_EQ(h.mem().raw_read_u64(kDataBase + 16), 0x3333U);
}

TEST(Cpu, ByteLoadsAndStores) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, kDataBase);
    as.mov_imm(Reg::kX1, 0x1FF);   // only the low byte is stored
    as.strb(Reg::kX1, Reg::kX0, 0);
    as.mov_imm(Reg::kX1, 0xAB);
    as.strb(Reg::kX1, Reg::kX0, 7);
    as.ldrb(Reg::kX2, Reg::kX0, 0);
    as.ldr(Reg::kX3, Reg::kX0, 0);  // whole word back
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX2), 0xFFU);  // zero-extended byte
  EXPECT_EQ(h.cpu().reg(Reg::kX3), 0xAB000000000000FFULL);
}

TEST(Cpu, StackPairPushPop) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX29, 0xAAAA);
    as.mov_imm(Reg::kX30, 0xBBBB);
    as.stp(Reg::kX29, Reg::kX30, Reg::kSp, -16, AddrMode::kPreIndex);
    as.mov_imm(Reg::kX29, 0);
    as.mov_imm(Reg::kX30, 0);
    as.ldp(Reg::kX29, Reg::kX30, Reg::kSp, 16, AddrMode::kPostIndex);
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX29), 0xAAAAU);
  EXPECT_EQ(h.cpu().reg(Reg::kX30), 0xBBBBU);
  EXPECT_EQ(h.cpu().reg(Reg::kSp), kStackTop);
}

TEST(Cpu, CallAndReturn) {
  CpuHarness h([](Assembler& as) {
    as.bl("fn");
    as.mov_imm(Reg::kX1, 77);
    as.hlt();
    as.function("fn");
    as.mov_imm(Reg::kX0, 42);
    as.ret();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 42U);
  EXPECT_EQ(h.cpu().reg(Reg::kX1), 77U);
}

TEST(Cpu, IndirectCallToFunctionEntryOk) {
  CpuHarness h([](Assembler& as) {
    as.mov_label(Reg::kX9, "fn");
    as.blr(Reg::kX9);
    as.hlt();
    as.function("fn");
    as.mov_imm(Reg::kX0, 1);
    as.ret();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 1U);
}

TEST(Cpu, IndirectCallCfiViolation) {
  // Assumption A2: blr into the middle of a function faults.
  CpuHarness h([](Assembler& as) {
    as.mov_label(Reg::kX9, "mid");
    as.blr(Reg::kX9);
    as.hlt();
    as.function("fn");
    as.nop();
    as.label("mid");
    as.mov_imm(Reg::kX0, 1);
    as.ret();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kCfi);
}

TEST(Cpu, ReturnToNonCanonicalFaults) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX30, (u64{1} << 62) | 0x10000);
    as.ret();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kTranslation);
}

TEST(Cpu, PaciaAutiaRoundTripInRegisters) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 0x12340);
    as.mov_imm(Reg::kX1, 0x999);
    as.pacia(Reg::kX0, Reg::kX1);
    as.mov(Reg::kX2, Reg::kX0);  // keep signed copy
    as.autia(Reg::kX0, Reg::kX1);
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 0x12340U);
  EXPECT_NE(h.cpu().reg(Reg::kX2), 0x12340U);  // PAC actually embedded
}

TEST(Cpu, RetaaVerifiesAgainstSp) {
  // The Listing 1 pattern: sign with SP, verify+return with retaa.
  CpuHarness h([](Assembler& as) {
    as.bl("fn");
    as.mov_imm(Reg::kX1, 5);
    as.hlt();
    as.function("fn");
    as.pacia(kLr, Reg::kSp);
    as.str(kLr, Reg::kSp, -16, AddrMode::kPreIndex);
    as.mov_imm(kLr, 0);  // clobber LR
    as.ldr(kLr, Reg::kSp, 16, AddrMode::kPostIndex);
    as.retaa();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX1), 5U);
}

TEST(Cpu, RetaaWithTamperedLrFaults) {
  CpuHarness h([](Assembler& as) {
    as.bl("fn");
    as.hlt();
    as.function("fn");
    as.pacia(kLr, Reg::kSp);
    as.mov_imm(Reg::kX9, 0x20);
    as.eor(kLr, kLr, Reg::kX9);  // corrupt the signed LR
    as.retaa();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kTranslation);
}

TEST(Cpu, FpacAutiaFaultsImmediately) {
  CpuHarness h(
      [](Assembler& as) {
        as.mov_imm(Reg::kX0, 0x5000);
        as.mov_imm(Reg::kX1, 1);
        as.pacia(Reg::kX0, Reg::kX1);
        as.mov_imm(Reg::kX1, 2);       // wrong modifier
        as.autia(Reg::kX0, Reg::kX1);  // ARMv8.6 FPAC: faults here
        as.hlt();
      },
      39, /*fpac=*/true);
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kPacAuthFailure);
}

TEST(Cpu, LoopWithCbnz) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 10);
    as.mov_imm(Reg::kX1, 0);
    as.label("loop");
    as.add_imm(Reg::kX1, Reg::kX1, 3);
    as.sub_imm(Reg::kX0, Reg::kX0, 1);
    as.cbnz(Reg::kX0, "loop");
    as.hlt();
  });
  h.cpu().run();
  EXPECT_EQ(h.cpu().reg(Reg::kX1), 30U);
}

TEST(Cpu, WorkBurnsCycles) {
  CpuHarness h([](Assembler& as) {
    as.work(1000);
    as.hlt();
  });
  h.cpu().run();
  EXPECT_GE(h.cpu().cycles(), 1000U);
  EXPECT_EQ(h.cpu().instructions(), 2U);
}

TEST(Cpu, CycleCostsConfigurable) {
  const auto build = [](Assembler& as) {
    as.mov_imm(Reg::kX0, 0x3000);
    as.pacia(Reg::kX0, Reg::kXzr);
    as.hlt();
  };
  CpuHarness cheap(build);
  cheap.cpu().set_costs(effective_costs());
  cheap.cpu().run();
  CpuHarness pricey(build);
  pricey.cpu().set_costs(latency_costs());
  pricey.cpu().run();
  EXPECT_EQ(pricey.cpu().cycles() - cheap.cpu().cycles(),
            latency_costs().pa - effective_costs().pa);
}

TEST(Cpu, SvcSuspends) {
  CpuHarness h([](Assembler& as) {
    as.svc(9);
    as.mov_imm(Reg::kX0, 1);
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kSvc);
  EXPECT_EQ(h.cpu().svc_number(), 9U);
  h.cpu().resume();
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 1U);
}

TEST(Cpu, BreakpointPausesAndResumes) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 1);
    as.label("bp");
    as.mov_imm(Reg::kX0, 2);
    as.hlt();
  });
  h.cpu().add_breakpoint(h.program().symbol("bp"));
  EXPECT_EQ(h.cpu().run(), RunState::kBreakpoint);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 1U);
  h.cpu().resume();
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 2U);
}

TEST(Cpu, StoreToCodeFaults) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, kCodeBase);
    as.str(Reg::kX1, Reg::kX0, 0);
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kPermission);
}

TEST(Cpu, TraceRingKeepsLastPcs) {
  CpuHarness h([](Assembler& as) {
    for (int i = 0; i < 10; ++i) as.nop();
    as.hlt();
  });
  h.cpu().enable_trace(4);
  h.cpu().run();
  const auto trace = h.cpu().trace();
  ASSERT_EQ(trace.size(), 4U);
  // Last four executed: nop@+28, nop@+32, nop@+36, hlt@+40.
  EXPECT_EQ(trace[0], kCodeBase + 28);
  EXPECT_EQ(trace[3], kCodeBase + 40);
}

TEST(Cpu, TraceBeforeWrapIsPartial) {
  CpuHarness h([](Assembler& as) {
    as.nop();
    as.hlt();
  });
  h.cpu().enable_trace(16);
  h.cpu().run();
  const auto trace = h.cpu().trace();
  ASSERT_EQ(trace.size(), 2U);
  EXPECT_EQ(trace[0], kCodeBase);
}

/// Run the same program under both dispatch modes and require bitwise
/// identical architectural results: register file, flags, PC, state,
/// fault, cycles and instruction count. The decoded fast path must be an
/// optimisation only.
void expect_dispatch_equivalence(const std::function<void(Assembler&)>& body,
                                 u64 max_steps = 100'000'000) {
  CpuHarness fast(body);
  CpuHarness ref(body);
  ref.cpu().set_dispatch(DispatchMode::kInterpreter);
  const RunState fast_state = fast.cpu().run(max_steps);
  const RunState ref_state = ref.cpu().run(max_steps);
  EXPECT_EQ(fast_state, ref_state);
  EXPECT_EQ(fast.cpu().fault().kind, ref.cpu().fault().kind);
  EXPECT_EQ(fast.cpu().fault().address, ref.cpu().fault().address);
  EXPECT_EQ(fast.cpu().fault().pc, ref.cpu().fault().pc);
  EXPECT_EQ(fast.cpu().cycles(), ref.cpu().cycles());
  EXPECT_EQ(fast.cpu().instructions(), ref.cpu().instructions());
  EXPECT_EQ(fast.cpu().call_depth(), ref.cpu().call_depth());
  EXPECT_EQ(fast.cpu().last_run_steps(), ref.cpu().last_run_steps());
  EXPECT_EQ(fast.cpu().steps_exhausted(), ref.cpu().steps_exhausted());
  const CpuSnapshot a = fast.cpu().snapshot();
  const CpuSnapshot b = ref.cpu().snapshot();
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.v, b.v);
}

TEST(Cpu, DispatchModesAgreeOnCallsAndPa) {
  expect_dispatch_equivalence([](Assembler& as) {
    as.mov_imm(Reg::kX0, 3);
    as.bl("fn");
    as.add_imm(Reg::kX0, Reg::kX0, 100);
    as.hlt();
    as.function("fn");
    as.pacia(kLr, Reg::kSp);
    as.str(kLr, Reg::kSp, -16, AddrMode::kPreIndex);
    as.lsl_imm(Reg::kX0, Reg::kX0, 2);
    as.ldr(kLr, Reg::kSp, 16, AddrMode::kPostIndex);
    as.retaa();
  });
}

TEST(Cpu, DispatchModesAgreeOnLoopsAndMemory) {
  expect_dispatch_equivalence([](Assembler& as) {
    as.mov_imm(Reg::kX0, 25);
    as.mov_imm(Reg::kX1, kDataBase);
    as.mov_imm(Reg::kX2, 0);
    as.label("loop");
    as.str(Reg::kX0, Reg::kX1, 0);
    as.ldr(Reg::kX3, Reg::kX1, 0);
    as.add(Reg::kX2, Reg::kX2, Reg::kX3);
    as.sub_imm(Reg::kX0, Reg::kX0, 1);
    as.cbnz(Reg::kX0, "loop");
    as.hlt();
  });
}

TEST(Cpu, DispatchModesAgreeOnFaults) {
  // Faulting store: the faulting step must charge the same cycles (none)
  // and leave the same fault record in both modes.
  expect_dispatch_equivalence([](Assembler& as) {
    as.mov_imm(Reg::kX0, 0x9000'0000);
    as.mov_imm(Reg::kX1, 3);
    as.str(Reg::kX1, Reg::kX0, 0);
    as.hlt();
  });
  // Tampered retaa detected on the return fetch.
  expect_dispatch_equivalence([](Assembler& as) {
    as.bl("fn");
    as.hlt();
    as.function("fn");
    as.pacia(kLr, Reg::kSp);
    as.mov_imm(Reg::kX9, 0x40);
    as.eor(kLr, kLr, Reg::kX9);
    as.retaa();
  });
}

TEST(Cpu, DispatchModesAgreeOnBudgetExhaustion) {
  expect_dispatch_equivalence(
      [](Assembler& as) {
        for (int i = 0; i < 32; ++i) as.add_imm(Reg::kX0, Reg::kX0, 1);
        as.hlt();
      },
      /*max_steps=*/7);
}

TEST(Cpu, StepsExhaustedDistinguishesTimeoutFromStop) {
  CpuHarness h([](Assembler& as) {
    for (int i = 0; i < 10; ++i) as.nop();
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(4), RunState::kReady);
  EXPECT_TRUE(h.cpu().steps_exhausted());
  EXPECT_EQ(h.cpu().last_run_steps(), 4U);
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_FALSE(h.cpu().steps_exhausted());  // stopped for a real reason
  EXPECT_EQ(h.cpu().last_run_steps(), 7U);  // 6 nops + hlt
}

TEST(Cpu, StepsExhaustedFalseOnSvcAndBreakpoint) {
  CpuHarness h([](Assembler& as) {
    as.svc(1);
    as.label("bp");
    as.nop();
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(1), RunState::kSvc);
  EXPECT_FALSE(h.cpu().steps_exhausted());
  EXPECT_EQ(h.cpu().last_run_steps(), 1U);
  h.cpu().resume();
  h.cpu().add_breakpoint(h.program().symbol("bp"));
  EXPECT_EQ(h.cpu().run(), RunState::kBreakpoint);
  EXPECT_FALSE(h.cpu().steps_exhausted());
  h.cpu().resume();
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
}

TEST(Cpu, LastRunStepsCountsFaultingStep) {
  CpuHarness h([](Assembler& as) {
    as.nop();
    as.nop();
    as.mov_imm(Reg::kX0, 0x9000'0000);
    as.ldr(Reg::kX1, Reg::kX0, 0);  // faults
    as.hlt();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_FALSE(h.cpu().steps_exhausted());
  EXPECT_EQ(h.cpu().last_run_steps(), 4U);  // the faulting step counts
}

TEST(Cpu, SnapshotRestoreRoundTrip) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 7);
    as.cmp_imm(Reg::kX0, 7);
    as.hlt();
  });
  h.cpu().run();
  const CpuSnapshot snap = h.cpu().snapshot();
  h.cpu().set_reg(Reg::kX0, 0);
  h.cpu().restore(snap);
  EXPECT_EQ(h.cpu().reg(Reg::kX0), 7U);
  EXPECT_TRUE(snap.z);
}

}  // namespace
}  // namespace acs::sim
