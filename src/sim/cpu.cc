#include "sim/cpu.h"

#include <algorithm>
#include <utility>

#include "common/bitops.h"
#include "inject/engine.h"
#include "obs/recorder.h"

namespace acs::sim {

namespace {

/// Map an opcode to its observability instruction class (mirrors the cost
/// buckets of the cycle model).
[[nodiscard]] obs::InstrClass classify(Opcode op) noexcept {
  switch (op) {
    case Opcode::kLdr:
    case Opcode::kLdrb:
    case Opcode::kStr:
    case Opcode::kStrb:
    case Opcode::kLdp:
    case Opcode::kStp:
      return obs::InstrClass::kMem;
    case Opcode::kB:
    case Opcode::kBCond:
    case Opcode::kCbz:
    case Opcode::kCbnz:
    case Opcode::kBl:
    case Opcode::kBlr:
    case Opcode::kBr:
    case Opcode::kRet:
      return obs::InstrClass::kBranch;
    case Opcode::kRetaa:
    case Opcode::kPacia:
    case Opcode::kAutia:
    case Opcode::kPacga:
    case Opcode::kXpaci:
      return obs::InstrClass::kPa;
    case Opcode::kSvc:
      return obs::InstrClass::kSvc;
    case Opcode::kNop:
    case Opcode::kHlt:
    case Opcode::kWork:
      return obs::InstrClass::kOther;
    default:
      return obs::InstrClass::kAlu;
  }
}

/// Control-flow effect as seen by the profiler's shadow call stack.
[[nodiscard]] obs::CtlFlow ctl_of(Opcode op) noexcept {
  switch (op) {
    case Opcode::kBl:
    case Opcode::kBlr:
      return obs::CtlFlow::kCall;
    case Opcode::kRet:
    case Opcode::kRetaa:
      return obs::CtlFlow::kReturn;
    default:
      return obs::CtlFlow::kNone;
  }
}

}  // namespace

// Defined ahead of CpuOps so that every handler inlines them.
inline void Cpu::finish(const DecodedInstr& di, u64 instr_pc,
                        u64 cost) noexcept {
  cycles_ += cost;
  // Retire hook: fires exactly when step() counts the instruction as
  // retired (faulting paths either returned early or left a pending fault).
  if (obs_ != nullptr &&
      (state_ == RunState::kReady || state_ == RunState::kSvc ||
       state_ == RunState::kHalted)) {
    obs_->retire(di.klass, instr_pc, pc_, cost, cycles_, di.ctl);
  }
}

inline u64 Cpu::ia_tag(u64 pointer, u64 modifier) {
  const u64 address = pauth_->layout().address_bits(pointer);
  const u64 mix = (address ^ (modifier * 0x9E37'79B9'7F4A'7C15ULL)) *
                  0xD6E8'FEB8'6659'FD93ULL;
  PaTagEntry& entry = pa_memo_[mix >> (64U - kPaMemoBits)];
  if (entry.tag == kNoTag || entry.address != address ||
      entry.modifier != modifier) {
    entry = {address, modifier,
             pauth_->expected_pac(crypto::KeyId::kIA, address, modifier)};
  }
  return entry.tag;
}

// ---------------------------------------------------------------------------
// Op handlers — the single source of instruction semantics. run_fast's
// threaded loop calls them directly by name; step() and the fetch-checked
// loop go through DecodedInstr::handler. Every handler owns its full step:
// operand reads, state update, pc advance, and the finish() epilogue (cycle
// charge + retire hook). Faulting memory/PA ops return *without* finish(),
// so a faulted access charges no cycles — exactly the old switch semantics.
// ---------------------------------------------------------------------------
struct CpuOps {
  static void nop(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void mov_imm(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, static_cast<u64>(d.instr.imm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void mov_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void add_imm(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) + static_cast<u64>(d.instr.imm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void add_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) + c.reg(d.instr.rm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void sub_imm(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) - static_cast<u64>(d.instr.imm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void sub_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) - c.reg(d.instr.rm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void eor_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) ^ c.reg(d.instr.rm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void and_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) & c.reg(d.instr.rm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void orr_reg(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) | c.reg(d.instr.rm));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void lsl_imm(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) << (d.instr.imm & 63));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void lsr_imm(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(d.instr.rd, c.reg(d.instr.rn) >> (d.instr.imm & 63));
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void cmp(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 lhs = c.reg(d.instr.rn);
    const u64 rhs = d.instr.op == Opcode::kCmpImm
                        ? static_cast<u64>(d.instr.imm)
                        : c.reg(d.instr.rm);
    const u64 result = lhs - rhs;
    c.flag_n_ = (result >> 63) != 0;
    c.flag_z_ = result == 0;
    c.flag_c_ = lhs >= rhs;
    const bool lhs_neg = (lhs >> 63) != 0;
    const bool rhs_neg = (rhs >> 63) != 0;
    const bool res_neg = (result >> 63) != 0;
    c.flag_v_ = (lhs_neg != rhs_neg) && (res_neg != lhs_neg);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void ldr(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    bool writeback = false;
    u64 new_base = 0;
    const u64 addr = c.mem_address(d.instr, new_base, writeback);
    const auto access = d.instr.op == Opcode::kLdr ? c.memory_->read_u64(addr)
                                                   : c.memory_->read_u8(addr);
    if (!access.ok()) {
      c.raise(access.fault.kind, addr);
      return;
    }
    c.set_reg(d.instr.rd, access.value);
    if (writeback) c.set_reg(d.instr.rn, new_base);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.mem);
  }

  static void str(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    bool writeback = false;
    u64 new_base = 0;
    const u64 addr = c.mem_address(d.instr, new_base, writeback);
    const Fault fault =
        d.instr.op == Opcode::kStr
            ? c.memory_->write_u64(addr, c.reg(d.instr.rd))
            : c.memory_->write_u8(addr, static_cast<u8>(c.reg(d.instr.rd)));
    if (fault) {
      c.raise(fault.kind, addr);
      return;
    }
    if (writeback) c.set_reg(d.instr.rn, new_base);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.mem);
  }

  static void ldp(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    bool writeback = false;
    u64 new_base = 0;
    const u64 addr = c.mem_address(d.instr, new_base, writeback);
    const auto first = c.memory_->read_u64(addr);
    const auto second = c.memory_->read_u64(addr + 8);
    if (!first.ok() || !second.ok()) {
      c.raise(FaultKind::kTranslation, addr);
      return;
    }
    c.set_reg(d.instr.rd, first.value);
    c.set_reg(d.instr.rm, second.value);
    if (writeback) c.set_reg(d.instr.rn, new_base);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.mem_pair);
  }

  static void stp(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    bool writeback = false;
    u64 new_base = 0;
    const u64 addr = c.mem_address(d.instr, new_base, writeback);
    const Fault f1 = c.memory_->write_u64(addr, c.reg(d.instr.rd));
    const Fault f2 = c.memory_->write_u64(addr + 8, c.reg(d.instr.rm));
    if (f1 || f2) {
      c.raise((f1 ? f1 : f2).kind, addr);
      return;
    }
    if (writeback) c.set_reg(d.instr.rn, new_base);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.mem_pair);
  }

  static void b(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.branch_to(d.instr.target);
    c.finish(d, pc, c.costs_.branch);
  }

  static void b_cond(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.pc_ = c.eval_cond(d.instr.cond) ? d.instr.target : pc + kInstrBytes;
    c.finish(d, pc, c.costs_.branch);
  }

  static void cbz(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.pc_ = c.reg(d.instr.rn) == 0 ? d.instr.target : pc + kInstrBytes;
    c.finish(d, pc, c.costs_.branch);
  }

  static void cbnz(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.pc_ = c.reg(d.instr.rn) != 0 ? d.instr.target : pc + kInstrBytes;
    c.finish(d, pc, c.costs_.branch);
  }

  static void bl(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.set_reg(kLr, pc + kInstrBytes);
    c.branch_to(d.instr.target);
    // Depth accounting is unified with blr: the bump is gated on a
    // retiring call. A direct bl cannot fault at execute time, so the
    // guard is vacuous today, but an asymmetry here would skew every
    // depth-gated injection plan (pinned in kernel_fault_kill_test).
    if (c.state_ == RunState::kReady) ++c.call_depth_;
    c.finish(d, pc, c.costs_.branch);
  }

  static void blr(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.indirect_branch(c.reg(d.instr.rn), /*link=*/true);
    if (c.state_ == RunState::kReady) ++c.call_depth_;
    c.finish(d, pc, c.costs_.branch);
  }

  static void br(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.indirect_branch(c.reg(d.instr.rn), /*link=*/false);
    c.finish(d, pc, c.costs_.branch);
  }

  static void ret(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    // A return is a direct use of the register value; a poisoned
    // (non-canonical) address faults at the subsequent fetch.
    c.branch_to(c.reg(d.instr.rn == Reg::kXzr ? kLr : d.instr.rn));
    if (c.call_depth_ > 0) --c.call_depth_;
    c.finish(d, pc, c.costs_.branch);
  }

  static void retaa(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 cost = c.costs_.pa + c.costs_.branch;
    const u64 lr = c.reg(kLr);
    const auto result =
        c.pauth_->apply_aut(lr, c.ia_tag(lr, c.reg(Reg::kSp)));
    if (c.obs_ != nullptr) {
      c.obs_->pac_auth(pc, c.reg(Reg::kSp), !result.fault,
                       /*chain=*/false, c.cycles_ + cost);
    }
    if (result.fault) {
      c.raise(FaultKind::kPacAuthFailure, c.reg(kLr));
      return;
    }
    c.set_reg(kLr, result.pointer);
    c.branch_to(result.pointer);
    if (c.call_depth_ > 0) --c.call_depth_;
    c.finish(d, pc, cost);
  }

  static void pacia(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 cost = c.costs_.pa;
    const u64 modifier = c.reg(d.instr.rn);
    const u64 pointer = c.reg(d.instr.rd);
    c.set_reg(d.instr.rd,
              c.pauth_->apply_pac(pointer, c.ia_tag(pointer, modifier)));
    if (c.obs_ != nullptr) {
      // A sign whose modifier is the chain register is a PACStack chain
      // update; signing into the scratch register is the aret mask
      // recomputation (Section 4.2 of the paper).
      c.obs_->pac_sign(pc, modifier, /*chain=*/d.instr.rn == kCr,
                       /*mask=*/d.instr.rd == kScratch, c.cycles_ + cost);
    }
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, cost);
  }

  static void autia(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 cost = c.costs_.pa;
    const u64 modifier = c.reg(d.instr.rn);
    const u64 pointer = c.reg(d.instr.rd);
    const auto result =
        c.pauth_->apply_aut(pointer, c.ia_tag(pointer, modifier));
    if (c.obs_ != nullptr) {
      c.obs_->pac_auth(pc, modifier, !result.fault,
                       /*chain=*/d.instr.rn == kCr, c.cycles_ + cost);
    }
    if (result.fault) {
      c.raise(FaultKind::kPacAuthFailure, c.reg(d.instr.rd));
      return;
    }
    c.set_reg(d.instr.rd, result.pointer);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, cost);
  }

  static void pacga(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 cost = c.costs_.pa;
    c.set_reg(d.instr.rd, c.pauth_->pacga(c.reg(d.instr.rn), c.reg(d.instr.rm)));
    if (c.obs_ != nullptr) c.obs_->pac_generic(pc, c.cycles_ + cost);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, cost);
  }

  static void xpaci(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    const u64 cost = c.costs_.pa;
    c.set_reg(d.instr.rd, c.pauth_->xpac(c.reg(d.instr.rd)));
    if (c.obs_ != nullptr) c.obs_->pac_strip(pc, c.cycles_ + cost);
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, cost);
  }

  static void svc(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.svc_number_ = static_cast<u16>(d.instr.imm);
    c.state_ = RunState::kSvc;
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.svc);
  }

  static void hlt(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.state_ = RunState::kHalted;
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, c.costs_.alu);
  }

  static void work(Cpu& c, const DecodedInstr& d) {
    const u64 pc = c.pc_;
    c.pc_ = pc + kInstrBytes;
    c.finish(d, pc, static_cast<u64>(d.instr.imm));
  }
};

DecodedInstr DecodedProgram::decode(const Instruction& instr) noexcept {
  DecodedInstr di;
  di.instr = instr;
  di.klass = classify(instr.op);
  di.ctl = ctl_of(instr.op);
  switch (instr.op) {
    case Opcode::kNop: di.handler = &CpuOps::nop; break;
    case Opcode::kMovImm: di.handler = &CpuOps::mov_imm; break;
    case Opcode::kMovReg: di.handler = &CpuOps::mov_reg; break;
    case Opcode::kAddImm: di.handler = &CpuOps::add_imm; break;
    case Opcode::kAddReg: di.handler = &CpuOps::add_reg; break;
    case Opcode::kSubImm: di.handler = &CpuOps::sub_imm; break;
    case Opcode::kSubReg: di.handler = &CpuOps::sub_reg; break;
    case Opcode::kEorReg: di.handler = &CpuOps::eor_reg; break;
    case Opcode::kAndReg: di.handler = &CpuOps::and_reg; break;
    case Opcode::kOrrReg: di.handler = &CpuOps::orr_reg; break;
    case Opcode::kLslImm: di.handler = &CpuOps::lsl_imm; break;
    case Opcode::kLsrImm: di.handler = &CpuOps::lsr_imm; break;
    case Opcode::kCmpImm:
    case Opcode::kCmpReg: di.handler = &CpuOps::cmp; break;
    case Opcode::kLdr:
    case Opcode::kLdrb: di.handler = &CpuOps::ldr; break;
    case Opcode::kStr:
    case Opcode::kStrb: di.handler = &CpuOps::str; break;
    case Opcode::kLdp: di.handler = &CpuOps::ldp; break;
    case Opcode::kStp: di.handler = &CpuOps::stp; break;
    case Opcode::kB: di.handler = &CpuOps::b; break;
    case Opcode::kBCond: di.handler = &CpuOps::b_cond; break;
    case Opcode::kCbz: di.handler = &CpuOps::cbz; break;
    case Opcode::kCbnz: di.handler = &CpuOps::cbnz; break;
    case Opcode::kBl: di.handler = &CpuOps::bl; break;
    case Opcode::kBlr: di.handler = &CpuOps::blr; break;
    case Opcode::kBr: di.handler = &CpuOps::br; break;
    case Opcode::kRet: di.handler = &CpuOps::ret; break;
    case Opcode::kRetaa: di.handler = &CpuOps::retaa; break;
    case Opcode::kPacia: di.handler = &CpuOps::pacia; break;
    case Opcode::kAutia: di.handler = &CpuOps::autia; break;
    case Opcode::kPacga: di.handler = &CpuOps::pacga; break;
    case Opcode::kXpaci: di.handler = &CpuOps::xpaci; break;
    case Opcode::kSvc: di.handler = &CpuOps::svc; break;
    case Opcode::kHlt: di.handler = &CpuOps::hlt; break;
    case Opcode::kWork: di.handler = &CpuOps::work; break;
  }
  return di;
}

std::shared_ptr<const DecodedProgram> DecodedProgram::build(
    const Program& program) {
  auto decoded = std::make_shared<DecodedProgram>();
  decoded->base_ = program.base;
  decoded->stream_.reserve(program.code.size());
  for (const auto& instr : program.code) {
    decoded->stream_.push_back(decode(instr));
  }
  return decoded;
}

Cpu::Cpu(const Program& program, AddressSpace& memory,
         const pa::PointerAuth& pauth)
    : Cpu(program, memory, pauth, DecodedProgram::build(program)) {}

Cpu::Cpu(const Program& program, AddressSpace& memory,
         const pa::PointerAuth& pauth,
         std::shared_ptr<const DecodedProgram> decoded)
    : program_(&program),
      memory_(&memory),
      pauth_(&pauth),
      decoded_(std::move(decoded)) {
  pc_ = program.base;
  flush_pa_memo();
}

void Cpu::flush_pa_memo() noexcept {
  pa_memo_.fill(PaTagEntry{0, 0, kNoTag});
}

u64 Cpu::reg(Reg r) const noexcept {
  if (r == Reg::kXzr) return 0;
  return regs_[static_cast<std::size_t>(r)];
}

void Cpu::set_reg(Reg r, u64 value) noexcept {
  if (r == Reg::kXzr) return;
  regs_[static_cast<std::size_t>(r)] = value;
}

void Cpu::enable_trace(std::size_t depth) {
  trace_ring_.assign(depth, 0);
  trace_next_ = 0;
  trace_wrapped_ = false;
}

std::vector<u64> Cpu::trace() const {
  std::vector<u64> out;
  if (trace_ring_.empty()) return out;
  if (trace_wrapped_) {
    out.insert(out.end(), trace_ring_.begin() + static_cast<i64>(trace_next_),
               trace_ring_.end());
  }
  out.insert(out.end(), trace_ring_.begin(),
             trace_ring_.begin() + static_cast<i64>(trace_next_));
  return out;
}

CpuSnapshot Cpu::snapshot() const noexcept {
  CpuSnapshot snap;
  snap.regs = regs_;
  snap.pc = pc_;
  snap.n = flag_n_;
  snap.z = flag_z_;
  snap.c = flag_c_;
  snap.v = flag_v_;
  return snap;
}

void Cpu::restore(const CpuSnapshot& snap) noexcept {
  regs_ = snap.regs;
  pc_ = snap.pc;
  flag_n_ = snap.n;
  flag_z_ = snap.z;
  flag_c_ = snap.c;
  flag_v_ = snap.v;
}

void Cpu::raise(FaultKind kind, u64 addr) noexcept {
  state_ = RunState::kFaulted;
  fault_ = Fault{kind, addr, pc_};
}

void Cpu::resume() noexcept {
  if (state_ == RunState::kSvc || state_ == RunState::kBreakpoint) {
    if (state_ == RunState::kBreakpoint) {
      // Step over this breakpoint — but only at this PC; if something (e.g.
      // signal delivery) moves the PC first, other breakpoints still fire.
      skip_breakpoint_once_ = true;
      skip_breakpoint_pc_ = pc_;
    }
    state_ = RunState::kReady;
  }
}

RunState Cpu::step() {
  if (state_ != RunState::kReady) return state_;

  if (breakpoints_.contains(pc_)) {
    if (skip_breakpoint_once_ && pc_ == skip_breakpoint_pc_) {
      skip_breakpoint_once_ = false;
    } else {
      state_ = RunState::kBreakpoint;
      return state_;
    }
  } else {
    skip_breakpoint_once_ = false;
  }

  // Instruction fetch: the PC must be canonical and inside the executable
  // segment. A failed autia earlier poisons the return address, so a
  // subsequent `ret` lands here with a non-canonical PC and faults —
  // exactly the paper's detection path (Section 2.2).
  if (!pauth_->layout().is_canonical(pc_) || !program_->contains(pc_) ||
      !memory_->is_executable(pc_)) {
    raise(FaultKind::kTranslation, pc_);
    return state_;
  }

  // Fault injection: mutate architectural state (or skip the instruction)
  // at the planned instruction count / call depth. One never-taken branch
  // when no injector is attached — same contract as the obs hooks.
  if (inject_ != nullptr && inject_->due(instructions_, call_depth_, pc_)) {
    if (apply_injection()) return state_;
  }

  if (!trace_ring_.empty()) {
    trace_ring_[trace_next_] = pc_;
    trace_next_ = (trace_next_ + 1) % trace_ring_.size();
    if (trace_next_ == 0) trace_wrapped_ = true;
  }

  const DecodedInstr& di = decoded_->at(pc_);
  di.handler(*this, di);
  if (state_ == RunState::kReady || state_ == RunState::kSvc ||
      state_ == RunState::kHalted) {
    ++instructions_;
  }
  return state_;
}

bool Cpu::apply_injection() {
  // A chain-corruption guess only lands at a call instruction: there CR is
  // architecturally live (the callee prologue uses it as the PAC modifier,
  // so the corrupted bits are always authenticated when the frame returns).
  // At an arbitrary boundary CR can be dead — e.g. mid-epilogue right
  // before its reload — and the write would be silently discarded, turning
  // a wrong guess into a false "worker survived" signal for the adversary.
  // Pc-triggered guesses (witness replay) name their architectural moment
  // explicitly and are exempt from the deferral.
  if (inject_->peek().kind == inject::FaultKind::kChainCorrupt &&
      inject_->peek().at_pc == 0) {
    const Opcode op = program_->at(pc_).op;
    if (op != Opcode::kBl && op != Opcode::kBlr) return false;
  }
  const inject::PlannedFault fault = inject_->take();
  if (obs_ != nullptr) {
    obs_->fault_injected(static_cast<u64>(fault.kind), fault.payload, cycles_);
  }
  switch (fault.kind) {
    case inject::FaultKind::kRetSlotBitflip: {
      // Flip one payload-chosen bit in one of the eight stack slots at SP —
      // where prologues keep spilled return addresses and frame records.
      const u64 addr = reg(Reg::kSp) + 8 * (fault.payload & 7);
      if (memory_->is_mapped(addr)) {
        const u64 bit = (fault.payload >> 3) & 63;
        memory_->raw_write_u64(addr,
                               memory_->raw_read_u64(addr) ^ (1ULL << bit));
      }
      inject_->record(fault.kind);
      return false;
    }
    case inject::FaultKind::kChainCorrupt: {
      // The Section 6.1 guessing adversary: write a guess into a window of
      // CR's PAC field. A correct guess leaves CR unchanged (the adversary
      // learned the live aret bits and the worker survives); a wrong guess
      // corrupts the chain, so the next chain authentication poisons the
      // return address and the process crashes.
      const unsigned width = inject_->guess_window();
      const unsigned lo = pauth_->layout().pac_lo();
      const u64 window = bit_mask(width) << lo;
      const u64 cr = reg(kCr);
      const u64 guess = (fault.payload & bit_mask(width)) << lo;
      const bool success = (cr & window) == guess;
      if (!success) set_reg(kCr, (cr & ~window) | guess);
      inject_->record(fault.kind, success);
      return false;
    }
    case inject::FaultKind::kInstrSkip:
      // Instruction-skip (glitch) model: the fetched instruction is
      // dropped; the skip consumes an instruction slot so the injection
      // clock always advances.
      inject_->record(fault.kind);
      pc_ += kInstrBytes;
      cycles_ += costs_.alu;
      ++instructions_;
      return true;
    case inject::FaultKind::kStoreWord: {
      // The Section 3 adversary's one-word write, delivered at an exact
      // program point (witness replay): overwrite one mapped word with the
      // planned payload. No bit games — this models a deliberate attacker
      // store, not a soft error.
      const u64 addr =
          fault.sp_rel ? reg(Reg::kSp) + fault.addr : fault.addr;
      if (memory_->is_mapped(addr)) {
        memory_->raw_write_u64(addr, fault.payload);
      }
      inject_->record(fault.kind);
      return false;
    }
    case inject::FaultKind::kKeyPerturb:
    case inject::FaultKind::kSigFrameTrash:
    case inject::FaultKind::kBudgetExhaust:
      return false;  // kernel-level kinds never land on the CPU cursor
  }
  return false;
}

RunState Cpu::run(u64 max_steps) {
  steps_exhausted_ = false;
  u64 steps = 0;
  if (breakpoints_.empty() && trace_ring_.empty()) {
    if (inject_ == nullptr) {
      steps = run_fast(max_steps);
    } else {
      // Under injection, run_fast covers each stretch in which no planned
      // fault can be due (due() would only return false there); the due
      // window itself, and any pc-triggered fault, goes through step().
      while (steps < max_steps && state_ == RunState::kReady) {
        const u64 quiet =
            std::min(max_steps - steps, inject_->quiet_steps(instructions_));
        if (quiet != 0) {
          steps += run_fast(quiet);
        } else {
          step();
          ++steps;
        }
      }
    }
  } else {
    for (; steps < max_steps && state_ == RunState::kReady; ++steps) step();
  }
  last_run_steps_ = steps;
  steps_exhausted_ = state_ == RunState::kReady;
  return state_;
}

u64 Cpu::run_fast(u64 max_steps) {
  const DecodedInstr* const stream = decoded_->stream().data();
  const u64 base = decoded_->base();
  const u64 limit = decoded_->size_bytes();
  skip_breakpoint_once_ = false;  // as step() does when no breakpoint is hit
  u64 steps = 0;
  // Hoisted fetch checks: canonicality is an interval ([0, 2^va_size)) and
  // regions never unmap or lose permissions, so when the whole decoded span
  // is canonical and inside one executable region the per-step fetch test
  // reduces to bounds + alignment. Nothing else can change mid-run: only
  // the CPU itself runs between the check and the loop.
  if (limit != 0 && pauth_->layout().is_canonical(base) &&
      pauth_->layout().is_canonical(base + limit - 1) && exec_cached(base) &&
      limit <= exec_len_ - (base - exec_lo_)) {
    // Computed-goto dispatch through a label table. Each case ends in its
    // own copy of ACS_DISPATCH in the source, but GCC at -O2 merges those
    // tails: the compiled loop has two indirect jumps (the first dispatch
    // and the shared one), so the gain over a switch is the dropped range
    // check and the locals below, not per-opcode branch prediction.
    //
    // The architectural counters (pc, cycles, retired instructions) live in
    // locals for the duration of the loop: the out-of-line handler calls would
    // otherwise force them through memory on every step. Trivial ALU and
    // branch ops execute inline on the locals — their bodies mirror the
    // CpuOps handlers exactly (they cannot fault and always retire, so the
    // unconditional retire bump matches finish()'s state gate); every other
    // opcode syncs the members around its handler call.
    const DecodedInstr* di = nullptr;
    u64 pc = pc_;
    u64 cycles = cycles_;
    u64 instrs = instructions_;
    const u64 alu_cost = costs_.alu;
    const u64 branch_cost = costs_.branch;
    // set_observer is never called mid-run, so the hook pointer is loop-
    // invariant; a local spares the reload across the out-of-line handler
    // calls.
    obs::TaskChannel* const obs = obs_;
    // The dispatch macro does not test state_: inline ops cannot leave
    // kReady, and the out-of-line case re-checks it right after its handler
    // returns, so dispatch is only ever reached with state_ == kReady.
#define ACS_SYNC_OUT() (pc_ = pc, cycles_ = cycles, instructions_ = instrs)
#define ACS_SYNC_IN() (pc = pc_, cycles = cycles_, instrs = instructions_)
#define ACS_DISPATCH()                                                        \
  do {                                                                        \
    if (steps >= max_steps) goto fast_done;                                   \
    ++steps;                                                                  \
    const u64 off = pc - base;                                                \
    if (off >= limit || (off & (kInstrBytes - 1)) != 0) {                     \
      ACS_SYNC_OUT();                                                         \
      raise(FaultKind::kTranslation, pc);                                     \
      goto fast_done; /* the faulting fetch consumed this step */             \
    }                                                                         \
    di = &stream[off / kInstrBytes];                                          \
    goto* kDispatch[static_cast<unsigned>(di->instr.op)];                     \
  } while (0)
    // One X(opcode, handler) per Opcode enumerator, in enum order,
    // mirroring DecodedProgram::decode's switch.
#define ACS_OPCODE_LIST(X)                                                    \
  X(kNop, nop) X(kMovImm, mov_imm) X(kMovReg, mov_reg) X(kAddImm, add_imm)    \
  X(kAddReg, add_reg) X(kSubImm, sub_imm) X(kSubReg, sub_reg)                 \
  X(kEorReg, eor_reg) X(kAndReg, and_reg) X(kOrrReg, orr_reg)                 \
  X(kLslImm, lsl_imm) X(kLsrImm, lsr_imm) X(kCmpImm, cmp) X(kCmpReg, cmp)     \
  X(kLdr, ldr) X(kStr, str) X(kLdrb, ldr) X(kStrb, str) X(kLdp, ldp)          \
  X(kStp, stp) X(kB, b) X(kBCond, b_cond) X(kCbz, cbz) X(kCbnz, cbnz)         \
  X(kBl, bl) X(kBlr, blr) X(kBr, br) X(kRet, ret) X(kRetaa, retaa)            \
  X(kPacia, pacia) X(kAutia, autia) X(kPacga, pacga) X(kXpaci, xpaci)         \
  X(kSvc, svc) X(kHlt, hlt) X(kWork, work)
#define ACS_LABEL_ADDR(name, fn) &&lab_##name,
    static const void* const kDispatch[kNumOpcodes] = {
        ACS_OPCODE_LIST(ACS_LABEL_ADDR)};
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kNumOpcodes);
    if (state_ != RunState::kReady) goto fast_done;
    ACS_DISPATCH();
    // Inline case: `body` updates registers and `pc` on the locals; the
    // epilogue mirrors finish() (cycle charge + retire hook) plus step()'s
    // retired-instruction bump, unconditional because these ops never leave
    // the kReady state.
#define ACS_INLINE_CASE(name, cost, body)                                     \
  lab_##name : {                                                              \
    const u64 ipc = pc;                                                       \
    body;                                                                     \
    cycles += (cost);                                                         \
    ++instrs;                                                                 \
    if (obs != nullptr) {                                                     \
      obs->retire(di->klass, ipc, pc, (cost), cycles, di->ctl);               \
    }                                                                         \
    ACS_DISPATCH();                                                           \
  }
    ACS_INLINE_CASE(kNop, alu_cost, pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kMovImm, alu_cost,
                    set_reg(di->instr.rd, static_cast<u64>(di->instr.imm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kMovReg, alu_cost, set_reg(di->instr.rd, reg(di->instr.rn));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kAddImm, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) + static_cast<u64>(di->instr.imm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kAddReg, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) + reg(di->instr.rm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kSubImm, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) - static_cast<u64>(di->instr.imm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kSubReg, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) - reg(di->instr.rm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kEorReg, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) ^ reg(di->instr.rm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kAndReg, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) & reg(di->instr.rm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kOrrReg, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) | reg(di->instr.rm));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kLslImm, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) << (di->instr.imm & 63));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kLsrImm, alu_cost,
                    set_reg(di->instr.rd,
                            reg(di->instr.rn) >> (di->instr.imm & 63));
                    pc = ipc + kInstrBytes)
    ACS_INLINE_CASE(kB, branch_cost, pc = di->instr.target)
    ACS_INLINE_CASE(kBCond, branch_cost,
                    pc = eval_cond(di->instr.cond) ? di->instr.target
                                                   : ipc + kInstrBytes)
    ACS_INLINE_CASE(kCbz, branch_cost,
                    pc = reg(di->instr.rn) == 0 ? di->instr.target
                                                : ipc + kInstrBytes)
    ACS_INLINE_CASE(kCbnz, branch_cost,
                    pc = reg(di->instr.rn) != 0 ? di->instr.target
                                                : ipc + kInstrBytes)
    // bl and ret mirror CpuOps::bl/ret: neither faults at execute time (a
    // bad return target faults at the next fetch), and state_ is kReady
    // here, so bl's retiring-call guard always holds.
    ACS_INLINE_CASE(kBl, branch_cost, set_reg(kLr, ipc + kInstrBytes);
                    pc = di->instr.target; ++call_depth_)
    ACS_INLINE_CASE(kRet, branch_cost,
                    pc = reg(di->instr.rn == Reg::kXzr ? kLr : di->instr.rn);
                    if (call_depth_ > 0) --call_depth_)
    ACS_INLINE_CASE(kWork, static_cast<u64>(di->instr.imm),
                    pc = ipc + kInstrBytes)
#undef ACS_INLINE_CASE
    // Out-of-line case: call the opcode's CpuOps handler directly (not
    // through DecodedInstr::handler, so the compiler may inline it) with the
    // members synced — identical to what the plain loop does per step.
#define ACS_OP_CASE(name, fn)                                                 \
  lab_##name : ACS_SYNC_OUT();                                                \
  CpuOps::fn(*this, *di);                                                     \
  if (state_ == RunState::kReady || state_ == RunState::kSvc ||               \
      state_ == RunState::kHalted) {                                          \
    ++instructions_;                                                          \
  }                                                                           \
  ACS_SYNC_IN();                                                              \
  if (state_ != RunState::kReady) goto fast_done;                             \
  ACS_DISPATCH();
    ACS_OP_CASE(kCmpImm, cmp)
    ACS_OP_CASE(kCmpReg, cmp)
    ACS_OP_CASE(kLdr, ldr)
    ACS_OP_CASE(kStr, str)
    ACS_OP_CASE(kLdrb, ldr)
    ACS_OP_CASE(kStrb, str)
    ACS_OP_CASE(kLdp, ldp)
    ACS_OP_CASE(kStp, stp)
    ACS_OP_CASE(kBlr, blr)
    ACS_OP_CASE(kBr, br)
    ACS_OP_CASE(kRetaa, retaa)
    ACS_OP_CASE(kPacia, pacia)
    ACS_OP_CASE(kAutia, autia)
    ACS_OP_CASE(kPacga, pacga)
    ACS_OP_CASE(kXpaci, xpaci)
    ACS_OP_CASE(kSvc, svc)
    ACS_OP_CASE(kHlt, hlt)
#undef ACS_OP_CASE
#undef ACS_LABEL_ADDR
#undef ACS_OPCODE_LIST
#undef ACS_DISPATCH
  fast_done:
    ACS_SYNC_OUT();
#undef ACS_SYNC_IN
#undef ACS_SYNC_OUT
    return steps;
  }
  for (; steps < max_steps && state_ == RunState::kReady; ++steps) {
    // Fetch check, same outcome as step(): non-canonical, out-of-program or
    // non-executable PCs raise a translation fault at that PC. (A
    // non-canonical PC always lands out of bounds here, so the offset check
    // subsumes the canonicality test for the fault-free path.)
    const u64 off = pc_ - base;
    if (off >= limit || (off & (kInstrBytes - 1)) != 0 ||
        !pauth_->layout().is_canonical(pc_) || !exec_cached(pc_)) {
      raise(FaultKind::kTranslation, pc_);
      continue;  // the faulting fetch consumed this step
    }
    const DecodedInstr& di = stream[off / kInstrBytes];
    di.handler(*this, di);
    if (state_ == RunState::kReady || state_ == RunState::kSvc ||
        state_ == RunState::kHalted) {
      ++instructions_;
    }
  }
  return steps;
}

bool Cpu::exec_cached(u64 pc) noexcept {
  if (exec_version_ == memory_->layout_version() && pc - exec_lo_ < exec_len_) {
    return true;
  }
  const AddressSpace::RegionInfo* info = memory_->region_at(pc);
  if (info == nullptr || !info->perms.x) return false;
  exec_lo_ = info->base;
  exec_len_ = info->size;
  exec_version_ = memory_->layout_version();
  return true;
}

bool Cpu::eval_cond(Cond cond) const noexcept {
  switch (cond) {
    case Cond::kEq: return flag_z_;
    case Cond::kNe: return !flag_z_;
    case Cond::kLt: return flag_n_ != flag_v_;
    case Cond::kGe: return flag_n_ == flag_v_;
    case Cond::kGt: return !flag_z_ && flag_n_ == flag_v_;
    case Cond::kLe: return flag_z_ || flag_n_ != flag_v_;
    case Cond::kLo: return !flag_c_;
    case Cond::kHs: return flag_c_;
  }
  return false;
}

u64 Cpu::mem_address(const Instruction& instr, u64& base_out,
                     bool& writeback) noexcept {
  const u64 base = reg(instr.rn);
  switch (instr.mode) {
    case AddrMode::kOffset:
      writeback = false;
      base_out = base;
      return base + static_cast<u64>(instr.imm);
    case AddrMode::kPreIndex:
      writeback = true;
      base_out = base + static_cast<u64>(instr.imm);
      return base_out;
    case AddrMode::kPostIndex:
      writeback = true;
      base_out = base + static_cast<u64>(instr.imm);
      return base;
  }
  writeback = false;
  base_out = base;
  return base;
}

void Cpu::branch_to(u64 target) noexcept { pc_ = target; }

void Cpu::indirect_branch(u64 target, bool link) {
  // Coarse-grained forward-edge CFI (assumption A2): indirect branches may
  // only target function entries. The paper notes a minimal PA scheme with
  // a constant modifier satisfies this; we enforce it architecturally.
  if (!pauth_->layout().is_canonical(target)) {
    raise(FaultKind::kTranslation, target);
    return;
  }
  if (!program_->is_function_entry(target)) {
    raise(FaultKind::kCfi, target);
    return;
  }
  if (link) set_reg(kLr, pc_ + kInstrBytes);
  branch_to(target);
}

}  // namespace acs::sim
