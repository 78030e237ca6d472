#include "compiler/codegen.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/scheme.h"
#include "kernel/machine.h"
#include "kernel/syscalls.h"
#include "sim/disasm.h"
#include "sim/isa.h"

namespace acs::compiler {
namespace {

using sim::Opcode;
using sim::Program;

ProgramIr sample_ir() {
  IrBuilder builder;
  const auto leaf = builder.begin_function("leaf");
  builder.compute(5);
  const auto buffered = builder.begin_function("buffered", 48);
  builder.store_local(0, 1);
  builder.call(leaf);
  const auto plain = builder.begin_function("plain");
  builder.call(leaf);
  builder.call(buffered, 3);
  const auto entry = builder.begin_function("entry");
  builder.call(plain);
  builder.write_int(9);
  return builder.build(entry);
}

/// Instructions of the function starting at `name`, up to `count`.
std::vector<sim::Instruction> fn_code(const Program& program,
                                      const std::string& name,
                                      std::size_t count) {
  const u64 addr = program.symbol(name);
  std::vector<sim::Instruction> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(program.at(addr + i * sim::kInstrBytes));
  }
  return out;
}

TEST(Codegen, EmitsAllSymbols) {
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kPacStack});
  for (const char* symbol :
       {"main", "leaf", "buffered", "plain", "entry", "__setjmp", "__longjmp",
        "__acs_setjmp", "__acs_longjmp", "__thread_exit", "__sigtramp"}) {
    EXPECT_TRUE(program.symbols.contains(symbol)) << symbol;
  }
}

TEST(Codegen, FunctionsAreIndirectCallTargets) {
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kNone});
  EXPECT_TRUE(program.is_function_entry(program.symbol("leaf")));
  EXPECT_TRUE(program.is_function_entry(program.symbol("entry")));
}

TEST(Codegen, PacStackPrologueMatchesListing3) {
  // Listing 3: str x28 / stp fp,lr / mov x15,xzr / pacia lr,x28 /
  //            pacia x15,x28 / eor lr,lr,x15 / mov x15,xzr / mov x28,lr.
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kPacStack});
  const auto code = fn_code(program, "plain", 8);
  EXPECT_EQ(code[0].op, Opcode::kStr);
  EXPECT_EQ(code[0].rd, sim::kCr);
  EXPECT_EQ(code[0].mode, sim::AddrMode::kPreIndex);
  EXPECT_EQ(code[0].imm, -32);
  EXPECT_EQ(code[1].op, Opcode::kStp);
  EXPECT_EQ(code[2].op, Opcode::kMovReg);   // x15 <- xzr
  EXPECT_EQ(code[2].rd, sim::kScratch);
  EXPECT_EQ(code[3].op, Opcode::kPacia);    // lr <- pacia(lr, cr)
  EXPECT_EQ(code[3].rd, sim::kLr);
  EXPECT_EQ(code[3].rn, sim::kCr);
  EXPECT_EQ(code[4].op, Opcode::kPacia);    // x15 <- mask
  EXPECT_EQ(code[4].rd, sim::kScratch);
  EXPECT_EQ(code[5].op, Opcode::kEorReg);
  EXPECT_EQ(code[6].op, Opcode::kMovReg);   // clear mask
  EXPECT_EQ(code[7].op, Opcode::kMovReg);   // cr <- lr
  EXPECT_EQ(code[7].rd, sim::kCr);
}

TEST(Codegen, PacStackNoMaskPrologueMatchesListing2) {
  const auto program =
      compile_ir(sample_ir(), {.scheme = Scheme::kPacStackNoMask});
  const auto code = fn_code(program, "plain", 4);
  EXPECT_EQ(code[0].op, Opcode::kStr);
  EXPECT_EQ(code[1].op, Opcode::kStp);
  EXPECT_EQ(code[2].op, Opcode::kPacia);
  EXPECT_EQ(code[3].op, Opcode::kMovReg);
  EXPECT_EQ(code[3].rd, sim::kCr);
}

TEST(Codegen, PacRetPrologueMatchesListing1) {
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kPacRet});
  const auto code = fn_code(program, "plain", 2);
  EXPECT_EQ(code[0].op, Opcode::kPacia);  // paciasp
  EXPECT_EQ(code[0].rd, sim::kLr);
  EXPECT_EQ(code[0].rn, sim::Reg::kSp);
  EXPECT_EQ(code[1].op, Opcode::kStp);
}

TEST(Codegen, ShadowStackProloguePushesToX18) {
  const auto program =
      compile_ir(sample_ir(), {.scheme = Scheme::kShadowStack});
  const auto code = fn_code(program, "plain", 2);
  EXPECT_EQ(code[0].op, Opcode::kStr);
  EXPECT_EQ(code[0].rd, sim::kLr);
  EXPECT_EQ(code[0].rn, sim::kSsp);
  EXPECT_EQ(code[0].mode, sim::AddrMode::kPostIndex);
}

TEST(Codegen, LeafFunctionsUninstrumented) {
  // The Section 7.1 heuristic: leaves never spill LR, so no scheme touches
  // them — their first instruction is the body itself. pac-ret+leaf is the
  // deliberate exception.
  for (Scheme scheme : all_schemes()) {
    if (scheme == Scheme::kPacRetLeaf) continue;
    const auto program = compile_ir(sample_ir(), {.scheme = scheme});
    const auto code = fn_code(program, "leaf", 2);
    EXPECT_EQ(code[0].op, Opcode::kWork) << scheme_name(scheme);
    EXPECT_EQ(code[1].op, Opcode::kRet) << scheme_name(scheme);
  }
}

TEST(Codegen, PacRetLeafSignsLeavesInRegisters) {
  const auto program =
      compile_ir(sample_ir(), {.scheme = Scheme::kPacRetLeaf});
  const auto code = fn_code(program, "leaf", 3);
  EXPECT_EQ(code[0].op, Opcode::kPacia);  // sign on entry
  EXPECT_EQ(code[0].rd, sim::kLr);
  EXPECT_EQ(code[0].rn, sim::Reg::kSp);
  EXPECT_EQ(code[1].op, Opcode::kWork);   // body
  EXPECT_EQ(code[2].op, Opcode::kRetaa);  // verify + return
  // Non-leaf functions keep the ordinary pac-ret shape.
  const auto nonleaf = fn_code(program, "plain", 2);
  EXPECT_EQ(nonleaf[0].op, Opcode::kPacia);
  EXPECT_EQ(nonleaf[1].op, Opcode::kStp);
}

TEST(Codegen, UninstrumentedFunctionsGetBaselineFrames) {
  // Section 9.2: functions named in CompileOptions::uninstrumented are
  // compiled without the scheme even when the rest of the program uses it.
  CompileOptions options;
  options.scheme = Scheme::kPacStack;
  options.uninstrumented.push_back("plain");
  const auto program = compile_ir(sample_ir(), options);
  const auto code = fn_code(program, "plain", 2);
  EXPECT_EQ(code[0].op, Opcode::kStp);  // baseline frame, no str x28
  // Other functions still carry the PACStack prologue.
  const auto buffered = fn_code(program, "buffered", 1);
  EXPECT_EQ(buffered[0].op, Opcode::kStr);
  EXPECT_EQ(buffered[0].rd, sim::kCr);
}

TEST(Codegen, CrSpillEmittedOnlyWhenUninstrumented) {
  IrBuilder builder;
  const auto lib = builder.begin_function("lib");
  builder.compute(1);
  builder.mark_spills_cr();
  const auto entry = builder.begin_function("entry");
  builder.call(lib);
  const auto ir = builder.build(entry);

  const auto has_cr_store = [](const Program& program) {
    const u64 begin = program.symbol("lib");
    const u64 end = program.symbol("entry");
    for (u64 addr = begin; addr < end; addr += sim::kInstrBytes) {
      const auto& instr = program.at(addr);
      if (instr.op == Opcode::kStr && instr.rd == sim::kCr) return true;
    }
    return false;
  };

  CompileOptions mixed;
  mixed.scheme = Scheme::kPacStack;
  mixed.uninstrumented.push_back("lib");
  EXPECT_TRUE(has_cr_store(compile_ir(ir, mixed)));

  // Fully protected: lib is a leaf, PACStack leaves it alone and no spill
  // is emitted (instrumented code never stores CR outside the prologue
  // pattern).
  EXPECT_FALSE(has_cr_store(compile_ir(ir, {.scheme = Scheme::kPacStack})));
}

TEST(Codegen, CanaryOnlyForBufferedFunctionsUnderCanaryScheme) {
  const auto has_abort_svc = [](const Program& program, const std::string& fn,
                                const std::string& next_fn) {
    const u64 begin = program.symbol(fn);
    const u64 end = program.symbol(next_fn);
    for (u64 addr = begin; addr < end; addr += sim::kInstrBytes) {
      const auto& instr = program.at(addr);
      if (instr.op == Opcode::kSvc &&
          instr.imm == static_cast<i64>(kernel::Syscall::kAbort)) {
        return true;
      }
    }
    return false;
  };

  const auto canary = compile_ir(sample_ir(), {.scheme = Scheme::kCanary});
  EXPECT_TRUE(has_abort_svc(canary, "buffered", "plain"));
  EXPECT_FALSE(has_abort_svc(canary, "plain", "entry"));

  const auto baseline = compile_ir(sample_ir(), {.scheme = Scheme::kNone});
  EXPECT_FALSE(has_abort_svc(baseline, "buffered", "plain"));
}

TEST(Codegen, TailCallEndsWithPlainBranch) {
  IrBuilder builder;
  const auto target = builder.begin_function("target");
  builder.compute(1);
  const auto via = builder.begin_function("via");
  builder.compute(1);
  builder.tail_call(target);
  const auto ir = builder.build(via);
  const auto program = compile_ir(ir, {.scheme = Scheme::kPacStack});

  // Find the last instruction of `via` (it precedes nothing else: via is
  // the final function emitted... entry order: runtime, target, via).
  const auto& last = program.code.back();
  EXPECT_EQ(last.op, Opcode::kB);
  EXPECT_EQ(last.target, program.symbol("target"));
  // And the preceding instruction is the autia of the Listing 8 epilogue.
  const auto& prev = program.code[program.code.size() - 2];
  EXPECT_EQ(prev.op, Opcode::kAutia);
}

TEST(Codegen, SetjmpRoutedToSchemeWrapper) {
  IrBuilder builder;
  const auto f = builder.begin_function("f");
  builder.setjmp_point(0);
  const auto ir = builder.build(f);

  const auto find_bl_target = [](const Program& program, const std::string& fn) {
    const u64 begin = program.symbol(fn);
    for (u64 addr = begin;; addr += sim::kInstrBytes) {
      const auto& instr = program.at(addr);
      if (instr.op == Opcode::kBl) return instr.target;
      if (instr.op == Opcode::kRet) break;
    }
    return u64{0};
  };

  const auto pacstack = compile_ir(ir, {.scheme = Scheme::kPacStack});
  EXPECT_EQ(find_bl_target(pacstack, "f"), pacstack.symbol("__acs_setjmp"));
  const auto baseline = compile_ir(ir, {.scheme = Scheme::kNone});
  EXPECT_EQ(find_bl_target(baseline, "f"), baseline.symbol("__setjmp"));
}

TEST(Codegen, FnPointerSlotsInitialised) {
  IrBuilder builder;
  const auto callee = builder.begin_function("callee");
  builder.compute(1);
  const auto f = builder.begin_function("f");
  builder.call_via_slot(callee, 3);
  const auto ir = builder.build(f);
  const auto program = compile_ir(ir, {.scheme = Scheme::kNone});
  ASSERT_EQ(program.data_init.size(), 1U);
  EXPECT_EQ(program.data_init[0].first, fn_ptr_addr(3));
  EXPECT_EQ(program.data_init[0].second, program.symbol("callee"));
}

TEST(Codegen, VulnSitesLabelled) {
  IrBuilder builder;
  const auto f = builder.begin_function("f");
  builder.vuln_site(7);
  const auto ir = builder.build(f);
  const auto program = compile_ir(ir, {.scheme = Scheme::kPacStack});
  EXPECT_TRUE(program.symbols.contains("vuln_7"));
}

TEST(Codegen, PacStackListingsGoldenText) {
  // The instrumentation printed back must read as the paper's listings.
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kPacStack});
  const u64 entry = program.symbol("plain");
  std::vector<std::string> prologue;
  for (std::size_t i = 0; i < 8; ++i) {
    prologue.push_back(sim::disassemble(program.at(entry + 4 * i)));
  }
  const std::vector<std::string> expected = {
      "str x28, [sp, #-32]!",  // stack <- aret_{i-1}
      "stp x29, x30, [sp, #16]",
      "mov x15, xzr",
      "pacia x30, x28",
      "pacia x15, x28",
      "eor x30, x30, x15",
      "mov x15, xzr",
      "mov x28, x30",
  };
  EXPECT_EQ(prologue, expected);
}

TEST(Codegen, PacStackEpilogueGoldenText) {
  // Locate the epilogue: the last 9 instructions of `plain` (before the
  // next function's entry).
  const auto program = compile_ir(sample_ir(), {.scheme = Scheme::kPacStack});
  const u64 end = program.symbol("entry");  // next function
  std::vector<std::string> epilogue;
  for (u64 addr = end - 9 * 4; addr < end; addr += 4) {
    epilogue.push_back(sim::disassemble(program.at(addr)));
  }
  const std::vector<std::string> expected = {
      "mov x30, x28",
      "ldr x29, [sp, #16]",
      "ldr x28, [sp], #32",
      "mov x15, xzr",
      "pacia x15, x28",
      "eor x30, x30, x15",
      "mov x15, xzr",
      "autia x30, x28",
      "ret",
  };
  EXPECT_EQ(epilogue, expected);
}

// E10: the simulated cycles each scheme's instrumentation adds per call,
// the constant the Figure 5 overheads are built from (Section 7). driver
// calls mid 1000 times and mid calls leaf once: the 1001 activations of
// the non-leaf functions (mid and driver) are instrumented, leaf is not.
TEST(Codegen, PerCallInstrumentationCycles) {
  IrBuilder builder;
  const auto leaf = builder.begin_function("leaf");
  builder.compute(1);
  const auto mid = builder.begin_function("mid");
  builder.call(leaf);
  const auto driver = builder.begin_function("driver");
  builder.call(mid, 1000);
  const auto ir = builder.build(driver);
  const auto cycles = [&](Scheme scheme) {
    const Program program = compile_ir(ir, {.scheme = scheme});
    kernel::Machine machine(program);
    machine.run();
    return machine.init_process().cycles();
  };
  const u64 base = cycles(Scheme::kNone);
  EXPECT_EQ(cycles(Scheme::kPacStack) - base, 15U * 1001);
  EXPECT_EQ(cycles(Scheme::kPacStackNoMask) - base, 7U * 1001);
  EXPECT_EQ(cycles(Scheme::kShadowStack) - base, 4U * 1001);
  EXPECT_EQ(cycles(Scheme::kPacRet) - base, 2U * 1001);
}

TEST(Codegen, SchemeNamesRoundTrip) {
  for (Scheme scheme : all_schemes()) {
    EXPECT_EQ(scheme_from_name(scheme_name(scheme)), scheme);
  }
  EXPECT_THROW((void)scheme_from_name("nope"), std::invalid_argument);
  EXPECT_EQ(all_schemes().size(), 7U);
  EXPECT_EQ(all_schemes().front(), Scheme::kNone);
}

TEST(Codegen, EmptyProgramRejected) {
  EXPECT_THROW((void)compile_ir(ProgramIr{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace acs::compiler
