#include "compiler/codegen.h"

#include <algorithm>
#include <stdexcept>

#include "kernel/machine.h"
#include "kernel/syscalls.h"
#include "sim/assembler.h"

namespace acs::compiler {

using sim::AddrMode;
using sim::Assembler;
using sim::Reg;
using sim::kCr;
using sim::kLr;
using sim::kScratch;
using sim::kSsp;

namespace {

constexpr Reg kTmp0 = Reg::kX9;
constexpr Reg kTmp1 = Reg::kX10;

[[nodiscard]] constexpr u64 align16(u64 bytes) noexcept {
  return (bytes + 15U) & ~u64{15};
}

/// Per-function frame layout: [sp+0, locals) buffer, then loop-counter
/// slots, then (optionally) the canary — so a contiguous overflow from the
/// buffer walks over the counters and the canary before reaching the saved
/// frame record, as on a real downward-growing AArch64 stack frame.
struct FrameLayout {
  u64 locals = 0;
  u64 counter_base = 0;
  u64 counters = 0;
  bool canary = false;
  u64 canary_offset = 0;
  bool cr_spill = false;
  u64 cr_spill_offset = 0;
  u64 frame_bytes = 0;
};

[[nodiscard]] FrameLayout plan_frame(const FunctionIr& fn, bool canary,
                                     bool cr_spill) {
  FrameLayout layout;
  layout.locals = fn.local_bytes;
  layout.counter_base = fn.local_bytes;
  for (const auto& op : fn.body) {
    if (op.kind == OpKind::kCall && op.b > 1) ++layout.counters;
  }
  u64 top = layout.counter_base + layout.counters * 8;
  layout.canary = canary;
  if (canary) {
    layout.canary_offset = top;
    top += 8;
  }
  layout.cr_spill = cr_spill;
  if (cr_spill) {
    layout.cr_spill_offset = top;
    top += 8;
  }
  layout.frame_bytes = align16(top);
  return layout;
}

class FunctionLowerer {
 public:
  FunctionLowerer(Assembler& as, const ProgramIr& ir, const FunctionIr& fn,
                  std::size_t fn_index, const LoweringScheme& scheme,
                  bool uninstrumented)
      : as_(as), ir_(ir), fn_(fn), fn_index_(fn_index), scheme_(scheme),
        ctx_{&fn, scheme.instruments(fn)},
        layout_(plan_frame(fn, scheme.wants_canary(fn),
                           uninstrumented && fn.spills_cr)) {}

  [[nodiscard]] sim::UnwindInfo lower() {
    unwind_.entry = as_.here();
    unwind_.kind = unwind_kind();
    unwind_.prologue_bytes = prologue_bytes();
    unwind_.frame_bytes = layout_.frame_bytes;

    as_.function(fn_.name);
    scheme_.prologue(as_, ctx_);
    if (layout_.frame_bytes > 0) {
      as_.sub_imm(Reg::kSp, Reg::kSp, static_cast<i64>(layout_.frame_bytes));
    }
    if (layout_.canary) emit_canary_store();
    if (layout_.cr_spill) {
      // Section 9.2 hazard: unprotected code that uses X28 saves the chain
      // register to its ordinary (attacker-writable) stack frame and uses
      // the register for its own purposes.
      as_.str(kCr, Reg::kSp, static_cast<i64>(layout_.cr_spill_offset));
      as_.mov(kCr, Reg::kXzr);
    }

    u64 counter_slot = 0;
    for (std::size_t op_index = 0; op_index < fn_.body.size(); ++op_index) {
      lower_op(fn_.body[op_index], op_index, counter_slot);
    }

    as_.label(epilogue_label());
    if (layout_.cr_spill) {
      as_.ldr(kCr, Reg::kSp, static_cast<i64>(layout_.cr_spill_offset));
    }
    if (layout_.canary) emit_canary_check();
    if (layout_.frame_bytes > 0) {
      as_.add_imm(Reg::kSp, Reg::kSp, static_cast<i64>(layout_.frame_bytes));
    }
    if (fn_.tail_callee >= 0) {
      // Listing 8: the verify sequence runs, then a plain `b` transfers to
      // the tail callee, which will re-sign LR in its own prologue.
      scheme_.epilogue(as_, ctx_, /*emit_ret=*/false);
      as_.b(ir_.fn(static_cast<std::size_t>(fn_.tail_callee)).name);
    } else {
      scheme_.epilogue(as_, ctx_, /*emit_ret=*/true);
    }
    unwind_.end = as_.here();
    return std::move(unwind_);
  }

 private:
  /// Stack bytes the scheme prologue reserves (for the unwinder).
  [[nodiscard]] u64 prologue_bytes() const {
    if (!ctx_.instrumented) return 0;
    switch (scheme_.id()) {
      case Scheme::kPacStack:
      case Scheme::kPacStackNoMask:
        return 32;
      case Scheme::kPacRetLeaf:
        return fn_.is_leaf() ? 0 : 16;
      case Scheme::kNone:
      case Scheme::kCanary:
      case Scheme::kPacRet:
      case Scheme::kShadowStack:
        return 16;
    }
    return 0;
  }

  [[nodiscard]] sim::UnwindKind unwind_kind() const {
    using sim::UnwindKind;
    if (!ctx_.instrumented) return UnwindKind::kNoFrame;
    switch (scheme_.id()) {
      case Scheme::kPacStack: return UnwindKind::kAcsChainMasked;
      case Scheme::kPacStackNoMask: return UnwindKind::kAcsChainUnmasked;
      case Scheme::kPacRet: return UnwindKind::kSignedFrameRecord;
      case Scheme::kPacRetLeaf:
        return fn_.is_leaf() ? UnwindKind::kSignedNoFrame
                             : UnwindKind::kSignedFrameRecord;
      case Scheme::kShadowStack: return UnwindKind::kShadowStack;
      case Scheme::kNone:
      case Scheme::kCanary:
        return UnwindKind::kFrameRecord;
    }
    return UnwindKind::kNoFrame;
  }

  [[nodiscard]] std::string local_label(std::size_t op_index,
                                        const char* tag) const {
    return std::string{"L"}
        .append(std::to_string(fn_index_))
        .append("_")
        .append(std::to_string(op_index))
        .append("_")
        .append(tag);
  }

  [[nodiscard]] std::string epilogue_label() const {
    return "Lepi_" + std::to_string(fn_index_);
  }

  void emit_canary_store() {
    as_.mov_imm(kTmp0, kernel::kCanarySlot);
    as_.ldr(kTmp0, kTmp0);
    as_.str(kTmp0, Reg::kSp, static_cast<i64>(layout_.canary_offset));
  }

  void emit_canary_check() {
    const std::string ok = "Lcanary_ok_" + std::to_string(fn_index_);
    as_.ldr(kTmp0, Reg::kSp, static_cast<i64>(layout_.canary_offset));
    as_.mov_imm(kTmp1, kernel::kCanarySlot);
    as_.ldr(kTmp1, kTmp1);
    as_.cmp(kTmp0, kTmp1);
    as_.b_cond(sim::Cond::kEq, ok);
    as_.svc(static_cast<u16>(kernel::Syscall::kAbort));
    as_.label(ok);
  }

  void lower_op(const Op& op, std::size_t op_index, u64& counter_slot) {
    switch (op.kind) {
      case OpKind::kCompute:
        as_.work(static_cast<u32>(op.a));
        break;
      case OpKind::kCall: {
        const std::string& callee = ir_.fn(op.a).name;
        if (op.b <= 1) {
          as_.bl(callee);
          break;
        }
        // Loop with a memory-resident counter so no callee-saved register
        // is needed across the calls.
        const i64 slot = static_cast<i64>(layout_.counter_base +
                                          counter_slot * 8);
        ++counter_slot;
        const std::string loop = local_label(op_index, "loop");
        const std::string done = local_label(op_index, "done");
        as_.mov_imm(kTmp0, op.b);
        as_.str(kTmp0, Reg::kSp, slot);
        as_.label(loop);
        as_.ldr(kTmp0, Reg::kSp, slot);
        as_.cbz(kTmp0, done);
        as_.sub_imm(kTmp0, kTmp0, 1);
        as_.str(kTmp0, Reg::kSp, slot);
        as_.bl(callee);
        as_.b(loop);
        as_.label(done);
        break;
      }
      case OpKind::kCallIndirect:
        as_.mov_label(kTmp0, ir_.fn(op.a).name);
        as_.blr(kTmp0);
        break;
      case OpKind::kCallViaSlot:
        as_.mov_imm(kTmp0, fn_ptr_addr(op.b));
        as_.ldr(kTmp0, kTmp0);
        as_.blr(kTmp0);
        break;
      case OpKind::kVulnSite:
        as_.label("vuln_" + std::to_string(op.a));
        as_.nop();
        break;
      case OpKind::kWriteInt:
        as_.mov_imm(Reg::kX0, op.a);
        as_.svc(static_cast<u16>(kernel::Syscall::kWriteInt));
        break;
      case OpKind::kWriteReg:
        as_.svc(static_cast<u16>(kernel::Syscall::kWriteInt));
        break;
      case OpKind::kSetjmp: {
        const std::string cont = local_label(op_index, "sj_cont");
        as_.mov_imm(Reg::kX0, jmp_buf_addr(op.a));
        as_.bl(scheme_.setjmp_symbol());
        as_.cbz(Reg::kX0, cont);
        // Non-zero: we arrived via longjmp — log the value and return.
        as_.svc(static_cast<u16>(kernel::Syscall::kWriteInt));
        as_.b(epilogue_label());
        as_.label(cont);
        break;
      }
      case OpKind::kLongjmp:
        as_.mov_imm(Reg::kX0, jmp_buf_addr(op.a));
        as_.mov_imm(Reg::kX1, op.b);
        as_.bl(scheme_.longjmp_symbol());
        break;
      case OpKind::kThreadCreate:
        as_.mov_label(Reg::kX0, ir_.fn(op.a).name);
        as_.mov_imm(Reg::kX1, op.b);
        as_.svc(static_cast<u16>(kernel::Syscall::kThreadCreate));
        break;
      case OpKind::kYield:
        as_.svc(static_cast<u16>(kernel::Syscall::kYield));
        break;
      case OpKind::kStoreLocal:
        if (op.a >= kWildAccessBase) {
          // Wild access: the offset is an absolute address (see ir.h).
          as_.mov_imm(kTmp0, op.b);
          as_.mov_imm(kTmp1, op.a);
          as_.str(kTmp0, kTmp1);
        } else {
          as_.mov_imm(kTmp0, op.b);
          as_.str(kTmp0, Reg::kSp, static_cast<i64>(op.a));
        }
        break;
      case OpKind::kLoadLocal:
        if (op.a >= kWildAccessBase) {
          as_.mov_imm(kTmp0, op.a);
          as_.ldr(kTmp0, kTmp0);
        } else {
          as_.ldr(kTmp0, Reg::kSp, static_cast<i64>(op.a));
        }
        break;
      case OpKind::kSigaction:
        as_.mov_imm(Reg::kX0, op.a);
        as_.mov_label(Reg::kX1, ir_.fn(op.b).name);
        as_.svc(static_cast<u16>(kernel::Syscall::kSigaction));
        break;
      case OpKind::kRaise:
        as_.svc(static_cast<u16>(kernel::Syscall::kGetPid));  // X0 <- pid
        as_.mov_imm(Reg::kX1, op.a);
        as_.svc(static_cast<u16>(kernel::Syscall::kKill));
        break;
      case OpKind::kFork:
        as_.svc(static_cast<u16>(kernel::Syscall::kFork));
        break;
      case OpKind::kThreadJoin:
        as_.mov_imm(Reg::kX0, op.a);
        as_.svc(static_cast<u16>(kernel::Syscall::kThreadJoin));
        break;
      case OpKind::kCatchPoint: {
        // Landing pad: normal execution skips it; a kernel-dispatched
        // throw lands on the pad with the thrown value in X0, logs it and
        // returns from the function (mirrors the setjmp lowering).
        const std::string skip = local_label(op_index, "catch_skip");
        as_.b(skip);
        const u64 pad = as_.here();
        unwind_.catches.emplace_back(op.a, pad);
        as_.svc(static_cast<u16>(kernel::Syscall::kWriteInt));
        as_.b(epilogue_label());
        as_.label(skip);
        break;
      }
      case OpKind::kThrow:
        as_.mov_imm(Reg::kX0, op.a);
        as_.mov_imm(Reg::kX1, op.b);
        as_.svc(static_cast<u16>(kernel::Syscall::kThrow));
        as_.hlt();  // unreachable: the kernel transfers control
        break;
    }
  }

  Assembler& as_;
  const ProgramIr& ir_;
  const FunctionIr& fn_;
  std::size_t fn_index_;
  const LoweringScheme& scheme_;
  FrameCtx ctx_;
  FrameLayout layout_;
  sim::UnwindInfo unwind_;
};

void emit_runtime(Assembler& as, const ProgramIr& ir) {
  // main: call the entry function, then exit(0).
  as.function("main");
  as.bl(ir.fn(ir.entry).name);
  as.mov_imm(Reg::kX0, 0);
  as.svc(static_cast<u16>(kernel::Syscall::kExit));
  as.hlt();

  // Thread-exit stub: new threads get this as their initial LR.
  as.function("__thread_exit");
  as.svc(static_cast<u16>(kernel::Syscall::kThreadExit));
  as.hlt();

  // Signal trampoline: handlers return here (Section 6.3.2).
  as.function("__sigtramp");
  as.svc(static_cast<u16>(kernel::Syscall::kSigreturn));
  as.hlt();

  // Plain setjmp/longjmp. jmp_buf: [0]=LR, [8]=X28, [16]=SP, [24]=X18.
  as.function("__setjmp");
  as.str(kLr, Reg::kX0, 0);
  as.str(kCr, Reg::kX0, 8);
  as.mov(kTmp0, Reg::kSp);
  as.str(kTmp0, Reg::kX0, 16);
  as.str(kSsp, Reg::kX0, 24);
  as.mov_imm(Reg::kX0, 0);
  as.ret();

  as.function("__longjmp");
  as.ldr(kLr, Reg::kX0, 0);
  as.ldr(kCr, Reg::kX0, 8);
  as.ldr(kTmp0, Reg::kX0, 16);
  as.mov(Reg::kSp, kTmp0);
  as.ldr(kSsp, Reg::kX0, 24);
  as.mov(Reg::kX0, Reg::kX1);
  as.ret();

  // PACStack wrappers (Section 5.3, Listings 4-5): the setjmp return
  // address is authenticated and additionally bound to the SP value before
  // being stored; longjmp re-derives and verifies it.
  as.function("__acs_setjmp");
  as.mov(kTmp1, kLr);         // keep the plain return address
  as.mov(kScratch, Reg::kSp);
  as.pacia(kScratch, kCr);    // pacia(SP_b, aret_i)
  as.pacia(kLr, kCr);         // pacia(ret_b, aret_i)
  as.eor(kLr, kLr, kScratch); // aret_b
  as.mov(kScratch, Reg::kXzr);
  as.str(kLr, Reg::kX0, 0);   // buf <- aret_b
  as.str(kCr, Reg::kX0, 8);   // buf <- aret_i
  as.mov(kTmp0, Reg::kSp);
  as.str(kTmp0, Reg::kX0, 16);
  as.str(kSsp, Reg::kX0, 24);
  as.mov(kLr, kTmp1);
  as.mov_imm(Reg::kX0, 0);
  as.ret();

  as.function("__acs_longjmp");
  as.ldr(kCr, Reg::kX0, 8);      // CR <- aret_i (at setjmp time)
  as.ldr(kLr, Reg::kX0, 0);      // LR <- aret_b
  as.ldr(kScratch, Reg::kX0, 16);  // X15 <- SP_b
  as.mov(kTmp0, kScratch);
  as.pacia(kScratch, kCr);       // recreate the SP binding
  as.eor(kLr, kLr, kScratch);    // LR <- pacia(ret_b, aret_i)
  as.mov(kScratch, Reg::kXzr);
  as.autia(kLr, kCr);            // LR <- ret_b (or poisoned on tampering)
  as.mov(Reg::kSp, kTmp0);
  as.ldr(kSsp, Reg::kX0, 24);
  as.mov(Reg::kX0, Reg::kX1);
  as.ret();
}

}  // namespace

sim::Program compile_ir(const ProgramIr& ir, const CompileOptions& options) {
  if (ir.functions.empty()) {
    throw std::invalid_argument{"compile_ir: empty program"};
  }
  const auto scheme = make_scheme(options.scheme);
  const auto baseline = make_scheme(Scheme::kNone);
  Assembler as(options.code_base);

  const auto is_uninstrumented = [&options](const std::string& name) {
    return std::find(options.uninstrumented.begin(),
                     options.uninstrumented.end(),
                     name) != options.uninstrumented.end();
  };

  emit_runtime(as, ir);
  std::vector<sim::UnwindInfo> unwind;
  unwind.reserve(ir.functions.size());
  for (std::size_t i = 0; i < ir.functions.size(); ++i) {
    const bool plain = is_uninstrumented(ir.functions[i].name);
    FunctionLowerer lowerer(as, ir, ir.functions[i], i,
                            plain ? *baseline : *scheme, plain);
    unwind.push_back(lowerer.lower());
  }

  sim::Program program = as.assemble();
  program.unwind = std::move(unwind);

  // Fill loader-initialised function-pointer slots for kCallViaSlot.
  for (const auto& fn : ir.functions) {
    for (const auto& op : fn.body) {
      if (op.kind == OpKind::kCallViaSlot) {
        program.data_init.emplace_back(fn_ptr_addr(op.b),
                                       program.symbol(ir.fn(op.a).name));
      }
    }
  }
  return program;
}

}  // namespace acs::compiler
