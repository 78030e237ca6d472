// The simulated AArch64-like instruction set.
//
// A deliberately small register-accurate ISA: just enough of A64 to express
// the paper's Listings 1–8 verbatim (frame records, PA instructions,
// tail calls, setjmp/longjmp wrappers, shadow-stack pushes, canaries) plus
// the control flow and compute that the synthetic workloads need.
// Instructions occupy 4 bytes of address space each, as on real AArch64,
// so return addresses and branch targets behave architecturally.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace acs::sim {

/// Register file indices. X29 = frame pointer, X30 = link register,
/// X28 = PACStack chain register (CR), X18 = platform/shadow-stack register,
/// X15 = the scratch register PACStack uses for masks.
enum class Reg : u8 {
  kX0 = 0, kX1, kX2, kX3, kX4, kX5, kX6, kX7,
  kX8, kX9, kX10, kX11, kX12, kX13, kX14, kX15,
  kX16, kX17, kX18, kX19, kX20, kX21, kX22, kX23,
  kX24, kX25, kX26, kX27, kX28, kX29, kX30,
  kSp,   ///< stack pointer
  kXzr,  ///< zero register (reads 0, writes discarded)
};

inline constexpr Reg kFp = Reg::kX29;       ///< frame pointer
inline constexpr Reg kLr = Reg::kX30;       ///< link register
inline constexpr Reg kCr = Reg::kX28;       ///< PACStack chain register
inline constexpr Reg kSsp = Reg::kX18;      ///< shadow-stack pointer register
inline constexpr Reg kScratch = Reg::kX15;  ///< PACStack mask scratch

inline constexpr std::size_t kNumRegs = 33;

/// Condition codes for B.cond (subset).
enum class Cond : u8 { kEq, kNe, kLt, kGe, kGt, kLe, kLo, kHs };

/// Addressing mode for single/pair loads and stores.
enum class AddrMode : u8 {
  kOffset,     ///< [base, #imm]
  kPreIndex,   ///< [base, #imm]! — base updated before access
  kPostIndex,  ///< [base], #imm  — base updated after access
};

enum class Opcode : u8 {
  kNop,
  kMovImm,   ///< rd <- imm (64-bit pseudo-movz)
  kMovReg,   ///< rd <- rn
  kAddImm,   ///< rd <- rn + imm
  kAddReg,   ///< rd <- rn + rm
  kSubImm,   ///< rd <- rn - imm
  kSubReg,   ///< rd <- rn - rm
  kEorReg,   ///< rd <- rn ^ rm
  kAndReg,   ///< rd <- rn & rm
  kOrrReg,   ///< rd <- rn | rm
  kLslImm,   ///< rd <- rn << imm
  kLsrImm,   ///< rd <- rn >> imm
  kCmpImm,   ///< flags <- rn - imm
  kCmpReg,   ///< flags <- rn - rm
  kLdr,      ///< rd <- mem64[addr(rn, imm, mode)]
  kStr,      ///< mem64[addr(rn, imm, mode)] <- rd
  kLdrb,     ///< rd <- mem8[...] (zero-extended)
  kStrb,     ///< mem8[...] <- rd & 0xff
  kLdp,      ///< rd, rm <- mem64[addr], mem64[addr+8]
  kStp,      ///< mem64[addr], mem64[addr+8] <- rd, rm
  kB,        ///< PC <- target
  kBCond,    ///< conditional branch
  kCbz,      ///< branch if rn == 0
  kCbnz,     ///< branch if rn != 0
  kBl,       ///< LR <- PC+4; PC <- target
  kBlr,      ///< LR <- PC+4; PC <- rn (subject to coarse forward-edge CFI)
  kBr,       ///< PC <- rn (subject to coarse forward-edge CFI)
  kRet,      ///< PC <- rn (default LR); faults if target non-canonical
  kRetaa,    ///< autia(LR, SP) then return — the -mbranch-protection epilogue
  kPacia,    ///< rd <- pac_ia(rd, rn)
  kAutia,    ///< rd <- aut_ia(rd, rn)
  kPacga,    ///< rd <- pacga(rn, rm) (32-bit generic MAC, high half)
  kXpaci,    ///< rd <- strip(rd)
  kSvc,      ///< supervisor call, imm = syscall number
  kHlt,      ///< halt the hart
  kWork,     ///< burn `imm` cycles of straight-line compute (workload model)
};

/// Number of opcode values (the enum is contiguous from 0) — sizes the
/// threaded-dispatch label table in Cpu::run_fast.
inline constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::kWork) + 1;

/// One decoded instruction. `target` holds a resolved code address for
/// branch opcodes (filled in by the assembler's fixup pass).
struct Instruction {
  Opcode op = Opcode::kNop;
  Reg rd = Reg::kXzr;
  Reg rn = Reg::kXzr;
  Reg rm = Reg::kXzr;
  i64 imm = 0;
  u64 target = 0;
  Cond cond = Cond::kEq;
  AddrMode mode = AddrMode::kOffset;

  bool operator==(const Instruction&) const = default;
};

/// Bytes of address space per instruction (as on AArch64).
inline constexpr u64 kInstrBytes = 4;

/// How one activation record is popped during exception unwinding —
/// scheme-agnostic so the kernel unwinder needs no compiler knowledge.
enum class UnwindKind : u8 {
  kNoFrame,           ///< leaf: the return address is live in LR
  kSignedNoFrame,     ///< leaf with in-register signed LR (pac-ret+leaf)
  kFrameRecord,       ///< plain frame record: LR at [entry_sp - 8]
  kSignedFrameRecord, ///< pac-ret: SP-signed LR at [entry_sp - 8]
  kShadowStack,       ///< frame record + pop the X18 shadow stack
  kAcsChainMasked,    ///< PACStack: verified chain link at [entry_sp - 32]
  kAcsChainUnmasked,  ///< PACStack-nomask: same slot, no mask
};

/// Per-function unwind metadata (the DWARF-CFI/libunwind analogue): enough
/// to pop one activation record for each protection scheme, plus the
/// exception-handler landing pads. Emitted by the compiler backend and
/// consumed by the kernel's ACS-validating unwinder (Section 9.1).
struct UnwindInfo {
  u64 entry = 0;            ///< first instruction of the function
  u64 end = 0;              ///< one past the last instruction
  UnwindKind kind = UnwindKind::kNoFrame;
  u64 prologue_bytes = 0;   ///< stack the scheme prologue reserves
  u64 frame_bytes = 0;      ///< locals/counters/canary frame
  /// Exception tag -> landing-pad address within this function.
  std::vector<std::pair<u64, u64>> catches;

  [[nodiscard]] u64 catch_pad(u64 tag) const noexcept {
    for (const auto& [t, pad] : catches) {
      if (t == tag) return pad;
    }
    return 0;
  }
};

/// An assembled program: the instruction stream plus symbol/CFI metadata.
struct Program {
  u64 base = 0x0001'0000;             ///< load address of the code segment
  std::vector<Instruction> code;      ///< instruction at base + 4*i
  std::unordered_map<std::string, u64> symbols;  ///< label -> address
  std::vector<u64> function_entries;  ///< valid BLR targets (assumption A2)
  /// Loader-initialised data words (address, value) — e.g. function-pointer
  /// tables; written into the data segment at process creation.
  std::vector<std::pair<u64, u64>> data_init;
  /// Unwind metadata, sorted by entry address (see UnwindInfo).
  std::vector<UnwindInfo> unwind;

  /// Unwind record covering `addr`, or nullptr.
  [[nodiscard]] const UnwindInfo* unwind_for(u64 addr) const noexcept {
    for (const auto& info : unwind) {
      if (addr >= info.entry && addr < info.end) return &info;
    }
    return nullptr;
  }

  [[nodiscard]] u64 size_bytes() const noexcept {
    return static_cast<u64>(code.size()) * kInstrBytes;
  }
  [[nodiscard]] u64 end() const noexcept { return base + size_bytes(); }
  [[nodiscard]] bool contains(u64 addr) const noexcept {
    return addr >= base && addr < end() && (addr - base) % kInstrBytes == 0;
  }
  [[nodiscard]] const Instruction& at(u64 addr) const {
    return code.at((addr - base) / kInstrBytes);
  }
  [[nodiscard]] u64 symbol(const std::string& name) const {
    return symbols.at(name);
  }
  [[nodiscard]] bool is_function_entry(u64 addr) const noexcept;
};

/// Human-readable register name ("x0", "sp", ...).
[[nodiscard]] std::string reg_name(Reg r);

}  // namespace acs::sim
