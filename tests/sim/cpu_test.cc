#include "sim/cpu.h"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/scheme.h"
#include "obs/recorder.h"
#include "sim/assembler.h"
#include "workload/spec_suite.h"

namespace acs::sim {
namespace {

constexpr u64 kCodeBase = 0x1'0000;
constexpr u64 kDataBase = 0x10'0000;
constexpr u64 kStackTop = 0x20'1000;

/// Harness: assemble a program, map code (RX), data and a stack, run.
class CpuHarness {
 public:
  explicit CpuHarness(const std::function<void(Assembler&)>& body,
                      unsigned va_size = 39, bool fpac = false,
                      const char* backend = "siphash")
      : pauth_(make_keys(), pa::VaLayout{va_size}, backend, fpac) {
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

/// One IA tag memo case: the MAC backend, and whether aut faults (FPAC).
struct PaMemoCase {
  const char* backend;
  bool fpac;
};

std::ostream& operator<<(std::ostream& os, const PaMemoCase& c) {
  return os << c.backend << (c.fpac ? "/fpac" : "");
}

class CpuPaMemoTest : public ::testing::TestWithParam<PaMemoCase> {};

TEST_P(CpuPaMemoTest, RepeatedPairsMatchDirectPointerAuth) {
  // kReps passes over kPairs (pointer, modifier) pairs: more pairs than the
  // hart's tag memo has entries, so later passes mix hits with evictions.
  // Each pair is signed (pacia), then two neighbours that share one half
  // of its key (the same address with the next modifier; an address offset
  // by modifier bits with the same modifier) are signed too: a memo keyed
  // on half the pair would hand one of them the pair's tag. The pair is then
  // authenticated (autia) and, without FPAC, authenticated under a wrong
  // modifier; a pac-ret call signs LR against SP (pacia) and returns
  // through retaa. Without FPAC every odd pair's pointer has a PAC-field bit
  // set, the Section 6.3.1 gadget input whose signature must not verify.
  constexpr u64 kPairs = 300;
  constexpr u64 kReps = 3;
  constexpr u64 kWordsPerPair = 6;
  constexpr u64 kOffsetMask = 0x0fff'fff0;
  constexpr u64 kOutBase = 0x40'0000;
  constexpr u64 kOutBytes = kReps * kPairs * kWordsPerPair * 8;
  constexpr u64 kPointer0 = 0x1'2340;
  constexpr u64 kModifier0 = 0x5eed'0000'0001;
  constexpr u64 kModifierStep = 0x123'4567;
  constexpr u64 kGadgetBit = u64{1} << 40;
  const PaMemoCase param = GetParam();
  const bool gadget = !param.fpac;
  CpuHarness h(
      [&](Assembler& as) {
        as.mov_imm(Reg::kX5, kOutBase);
        as.mov_imm(Reg::kX10, gadget ? kGadgetBit : 0);
        as.mov_imm(Reg::kX12, kOffsetMask);
        as.mov_imm(Reg::kX6, kReps);
        as.label("rep");
        as.mov_imm(Reg::kX8, kPointer0);
        as.mov_imm(Reg::kX9, kModifier0);
        as.mov_imm(Reg::kX7, kPairs);
        as.label("pair");
        as.mov(Reg::kX0, Reg::kX8);
        as.pacia(Reg::kX0, Reg::kX9);
        as.str(Reg::kX0, Reg::kX5, 8, AddrMode::kPostIndex);
        as.add_imm(Reg::kX11, Reg::kX9, 1);
        as.mov(Reg::kX2, Reg::kX8);
        as.pacia(Reg::kX2, Reg::kX11);
        as.str(Reg::kX2, Reg::kX5, 8, AddrMode::kPostIndex);
        as.and_(Reg::kX2, Reg::kX9, Reg::kX12);
        as.add(Reg::kX2, Reg::kX2, Reg::kX8);
        as.pacia(Reg::kX2, Reg::kX9);
        as.str(Reg::kX2, Reg::kX5, 8, AddrMode::kPostIndex);
        as.mov(Reg::kX1, Reg::kX0);
        as.autia(Reg::kX0, Reg::kX9);
        as.str(Reg::kX0, Reg::kX5, 8, AddrMode::kPostIndex);
        if (!param.fpac) as.autia(Reg::kX1, Reg::kX8);  // wrong modifier
        as.str(Reg::kX1, Reg::kX5, 8, AddrMode::kPostIndex);
        as.bl("signer");
        as.label("after_call");
        as.eor(Reg::kX8, Reg::kX8, Reg::kX10);
        as.add_imm(Reg::kX8, Reg::kX8, 4);
        as.add_imm(Reg::kX9, Reg::kX9, kModifierStep);
        as.sub_imm(Reg::kX7, Reg::kX7, 1);
        as.cbnz(Reg::kX7, "pair");
        as.sub_imm(Reg::kX6, Reg::kX6, 1);
        as.cbnz(Reg::kX6, "rep");
        as.hlt();
        as.function("signer");
        as.pacia(kLr, Reg::kSp);
        as.str(kLr, Reg::kX5, 8, AddrMode::kPostIndex);
        as.retaa();
      },
      39, param.fpac, param.backend);
  h.mem().map(kOutBase, kOutBytes, kPermRw, "out");
  // A copy taken before the run replays the same PA ops in program order
  // with no memo; for the random oracle that also pins the sampler order.
  const pa::PointerAuth direct = h.pauth();
  ASSERT_EQ(h.cpu().run(), RunState::kHalted);

  const u64 ret = h.program().symbols.at("after_call");
  u64 word = kOutBase;
  const auto next_word = [&] {
    const u64 value = h.mem().raw_read_u64(word);
    word += 8;
    return value;
  };
  for (u64 rep = 0; rep < kReps; ++rep) {
    u64 pointer = kPointer0;
    u64 modifier = kModifier0;
    for (u64 pair = 0; pair < kPairs; ++pair) {
      SCOPED_TRACE(::testing::Message() << "rep " << rep << " pair " << pair);
      const u64 signed_ptr = direct.pac(crypto::KeyId::kIA, pointer, modifier);
      EXPECT_EQ(next_word(), signed_ptr);
      EXPECT_EQ(next_word(),
                direct.pac(crypto::KeyId::kIA, pointer, modifier + 1));
      EXPECT_EQ(next_word(),
                direct.pac(crypto::KeyId::kIA,
                           pointer + (modifier & kOffsetMask), modifier));
      const auto authed = direct.aut(crypto::KeyId::kIA, signed_ptr, modifier);
      EXPECT_EQ(authed.ok, (pointer & kGadgetBit) == 0);
      EXPECT_EQ(next_word(), authed.pointer);
      if (param.fpac) {
        EXPECT_EQ(next_word(), signed_ptr);
      } else {
        const auto wrong =
            direct.aut(crypto::KeyId::kIA, signed_ptr, pointer);
        EXPECT_FALSE(wrong.ok);
        EXPECT_EQ(next_word(), wrong.pointer);
      }
      const u64 signed_lr = direct.pac(crypto::KeyId::kIA, ret, kStackTop);
      EXPECT_EQ(next_word(), signed_lr);
      EXPECT_TRUE(direct.aut(crypto::KeyId::kIA, signed_lr, kStackTop).ok);
      pointer = (pointer ^ (gadget ? kGadgetBit : 0)) + 4;
      modifier += kModifierStep;
    }
  }
}

TEST_P(CpuPaMemoTest, MemoizedPairStillFaultsUnderAWrongModifier) {
  // The pair is signed and authenticated first, so the wrong-modifier
  // autia runs with the right pair's tag already memoized.
  CpuHarness h(
      [](Assembler& as) {
        as.mov_imm(Reg::kX0, 0x5000);
        as.mov_imm(Reg::kX1, 1);
        as.pacia(Reg::kX0, Reg::kX1);
        as.mov(Reg::kX2, Reg::kX0);
        as.autia(Reg::kX2, Reg::kX1);
        as.mov_imm(Reg::kX1, 2);       // wrong modifier
        as.autia(Reg::kX0, Reg::kX1);
        as.hlt();
      },
      39, GetParam().fpac, GetParam().backend);
  if (GetParam().fpac) {
    EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
    EXPECT_EQ(h.cpu().fault().kind, FaultKind::kPacAuthFailure);
  } else {
    EXPECT_EQ(h.cpu().run(), RunState::kHalted);
    EXPECT_EQ(h.cpu().reg(Reg::kX0),
              0x5000U | (u64{1} << pa::VaLayout::error_bit()));
  }
  EXPECT_EQ(h.cpu().reg(Reg::kX2), 0x5000U);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CpuPaMemoTest,
    ::testing::Values(PaMemoCase{"siphash", false}, PaMemoCase{"qarma", false},
                      PaMemoCase{"ro", false}, PaMemoCase{"siphash", true},
                      PaMemoCase{"ro", true}),
    [](const ::testing::TestParamInfo<PaMemoCase>& param) {
      return std::string{param.param.backend} +
             (param.param.fpac ? "_fpac" : "");
    });

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

// An attached trace ring routes Cpu::run through step() for every
// instruction and changes no architectural state: that is how the tests
// below reach the per-step reference path.
TEST(Cpu, TraceRingRoutesRunThroughStep) {
  CpuHarness h([](Assembler& as) {
    as.mov_imm(Reg::kX0, 5);
    as.label("loop");
    as.bl("fn");
    as.sub_imm(Reg::kX0, Reg::kX0, 1);
    as.cbnz(Reg::kX0, "loop");
    as.hlt();
    as.function("fn");
    as.pacia(kLr, Reg::kSp);
    as.autia(kLr, Reg::kSp);
    as.ret();
  });
  h.cpu().enable_trace(64);  // deeper than the 32-instruction run
  EXPECT_EQ(h.cpu().run(), RunState::kHalted);
  EXPECT_EQ(h.cpu().instructions(), 32U);
  EXPECT_EQ(h.cpu().trace().size(), h.cpu().instructions());
}

/// Run the same program on run_fast and on the per-step reference (step()
/// for every instruction, via a trace ring) and require bitwise identical
/// architectural results: register file, flags, PC, state, fault, cycles
/// and instruction count. The fast path must be an optimisation only.
/// `observed` attaches a metrics recorder to each side and requires
/// identical metrics too (retire counts, call-depth histogram).
void expect_dispatch_equivalence(const std::function<void(Assembler&)>& body,
                                 u64 max_steps = 100'000'000,
                                 bool observed = false) {
  CpuHarness fast(body);
  CpuHarness ref(body);
  ref.cpu().enable_trace(1);
  obs::Recorder fast_rec;
  obs::Recorder ref_rec;
  if (observed) {
    fast.cpu().set_observer(fast_rec.attach(1, 0, "fast"));
    ref.cpu().set_observer(ref_rec.attach(1, 0, "ref"));
  }
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
  if (observed) {
    const obs::Metrics fast_metrics = fast_rec.metrics();
    EXPECT_EQ(fast_metrics, ref_rec.metrics());
    EXPECT_NE(fast_metrics.histograms().at("sim.call.depth").total(), 0U);
  }
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

// Plain bl/ret recursion, run to completion and stopped mid-descent, with
// and without a recorder: call depth, the call-depth histogram and the
// retire counters must match the reference.
TEST(Cpu, DispatchModesAgreeOnRecursion) {
  const auto body = [](Assembler& as) {
    as.mov_imm(Reg::kX0, 6);
    as.bl("rec");
    as.hlt();
    as.function("rec");
    as.cbz(Reg::kX0, "leaf");
    as.str(kLr, Reg::kSp, -16, AddrMode::kPreIndex);
    as.sub_imm(Reg::kX0, Reg::kX0, 1);
    as.bl("rec");
    as.ldr(kLr, Reg::kSp, 16, AddrMode::kPostIndex);
    as.label("leaf");
    as.ret();
  };
  for (const bool observed : {false, true}) {
    expect_dispatch_equivalence(body, 100'000'000, observed);
    expect_dispatch_equivalence(body, /*max_steps=*/20, observed);
  }
  CpuHarness h(body);
  h.cpu().run(20);  // five calls deep: 2 + 4 * 4 + 2 steps
  EXPECT_EQ(h.cpu().call_depth(), 5U);
}

// A ret through a corrupted LR retires and faults at the next fetch, with
// the same fault kind, address and pc, steps and retired count as step().
TEST(Cpu, DispatchModesAgreeOnRetThroughCorruptLr) {
  const u64 non_canonical = u64{1} << 60;
  for (const u64 target : {non_canonical, u64{kDataBase}, kCodeBase + 2,
                           u64{kStackTop - 8}}) {
    // At call depth 1 (the decrement) and at depth 0 (its guard).
    expect_dispatch_equivalence(
        [target](Assembler& as) {
          as.bl("fn");
          as.hlt();
          as.function("fn");
          as.mov_imm(kLr, target);
          as.ret();
        },
        100'000'000, /*observed=*/true);
    expect_dispatch_equivalence([target](Assembler& as) {
      as.mov_imm(Reg::kX5, target);
      as.ret(Reg::kX5);
    });
  }
  CpuHarness h([&](Assembler& as) {
    as.mov_imm(kLr, non_canonical);
    as.ret();
  });
  EXPECT_EQ(h.cpu().run(), RunState::kFaulted);
  EXPECT_EQ(h.cpu().fault().kind, FaultKind::kTranslation);
  EXPECT_EQ(h.cpu().fault().address, non_canonical);
  EXPECT_EQ(h.cpu().fault().pc, non_canonical);
  EXPECT_EQ(h.cpu().instructions(), 2U);
  EXPECT_EQ(h.cpu().last_run_steps(), 3U);
}

TEST(Cpu, DispatchModesAgreeOnBudgetExhaustion) {
  expect_dispatch_equivalence(
      [](Assembler& as) {
        for (int i = 0; i < 32; ++i) as.add_imm(Reg::kX0, Reg::kX0, 1);
        as.hlt();
      },
      /*max_steps=*/7);
}

// step() and run_fast both read the shared decoded stream, so the
// equivalence tests above cannot catch a wrong slot in it: every slot
// build() makes for the Figure 5 programs (C and C++ suites) must equal a
// fresh decode().
TEST(DecodedProgram, StreamMatchesPerInstructionDecode) {
  for (const auto* suite :
       {&workload::spec_suite(), &workload::spec_cpp_suite()}) {
    for (const auto& bench : *suite) {
      const auto ir = workload::make_spec_ir(bench);
      for (const compiler::Scheme scheme : compiler::all_schemes()) {
        const Program program = compiler::compile_ir(ir, {.scheme = scheme});
        const auto decoded = DecodedProgram::build(program);
        ASSERT_EQ(decoded->size_bytes(), program.size_bytes());
        for (u64 pc = program.base; pc < program.end(); pc += kInstrBytes) {
          ASSERT_EQ(decoded->at(pc), DecodedProgram::decode(program.at(pc)))
              << bench.name << " " << compiler::scheme_name(scheme)
              << " pc " << pc;
        }
      }
    }
  }
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
