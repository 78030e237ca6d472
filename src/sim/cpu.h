// The simulated CPU core (one hart).
//
// Executes Program instructions against an AddressSpace with the
// PointerAuth engine of the owning process. Architectural behaviours the
// paper depends on are modelled exactly:
//   * fetch through a non-canonical or non-executable address raises a
//     translation fault — this is how a failed autia is *detected* (§2.2);
//   * blr/br enforce coarse-grained forward-edge CFI (assumption A2):
//     indirect branches must target function entries;
//   * svc suspends the hart and hands the syscall number to the kernel;
//   * every instruction is charged per the cycle model (PA ops = 4 cycles).
//
// Breakpoints let the adversary intervene at precise program points (e.g.
// while a return address sits on the stack), modelling a memory-corruption
// primitive triggered at a vulnerable call site.
#pragma once

#include <array>
#include <unordered_set>
#include <vector>

#include <memory>

#include "common/types.h"
#include "pa/pointer_auth.h"
#include "sim/cycle_model.h"
#include "sim/decode.h"
#include "sim/fault.h"
#include "sim/isa.h"
#include "sim/memory.h"

namespace acs::obs {
class TaskChannel;
}  // namespace acs::obs

namespace acs::inject {
class TaskInjector;
}  // namespace acs::inject

namespace acs::sim {

/// A full user-visible register context — what the kernel spills to its
/// private `cpu_context` on kernel entry (Section 5.4). Lives in host
/// memory, never in the simulated AddressSpace, so the adversary cannot
/// reach a suspended task's CR or LR.
struct CpuSnapshot {
  std::array<u64, kNumRegs> regs{};
  u64 pc = 0;
  bool n = false, z = false, c = false, v = false;
};

enum class RunState : u8 {
  kReady,       ///< can execute the next instruction
  kHalted,      ///< executed hlt
  kFaulted,     ///< architectural fault pending (see Cpu::fault())
  kSvc,         ///< supervisor call pending (see Cpu::svc_number())
  kBreakpoint,  ///< paused at an adversary/debugger breakpoint
};

class Cpu {
 public:
  /// Builds (and owns) a fresh decoded stream for `program`.
  Cpu(const Program& program, AddressSpace& memory, const pa::PointerAuth& pauth);

  /// Shares an already-built decoded stream (kernel::Machine passes the
  /// per-image cache here so forks never re-decode).
  Cpu(const Program& program, AddressSpace& memory, const pa::PointerAuth& pauth,
      std::shared_ptr<const DecodedProgram> decoded);

  // --- register file -----------------------------------------------------
  [[nodiscard]] u64 reg(Reg r) const noexcept;
  void set_reg(Reg r, u64 value) noexcept;
  [[nodiscard]] u64 pc() const noexcept { return pc_; }
  void set_pc(u64 pc) noexcept { pc_ = pc; }

  // --- execution -----------------------------------------------------------
  /// Execute one instruction (or hit a breakpoint). Returns the new state.
  /// This per-instruction path is the reference run_fast is tested against.
  RunState step();

  /// Run until a non-ready state or `max_steps` instructions. When no
  /// breakpoints or trace ring are attached, this uses a tight
  /// fetch/dispatch loop that hoists the per-step breakpoint and region
  /// lookups out of the hot path; otherwise it calls step() per
  /// instruction. An attached injector keeps that loop up to its next
  /// count-triggered fault; only the fault's due window and pc-triggered
  /// faults take per-step step() calls.
  RunState run(u64 max_steps = 100'000'000);

  /// True when the last run() stopped because it used up `max_steps` while
  /// the hart was still runnable — callers can now tell a timeout from a
  /// hart that stopped at a breakpoint/svc boundary (both return kReady
  /// after resume()).
  [[nodiscard]] bool steps_exhausted() const noexcept {
    return steps_exhausted_;
  }

  /// Steps consumed by the last run() call (faulting and injected-skip
  /// steps count; kernel::Machine uses this for exact budget accounting).
  [[nodiscard]] u64 last_run_steps() const noexcept { return last_run_steps_; }

  [[nodiscard]] RunState state() const noexcept { return state_; }
  [[nodiscard]] const Fault& fault() const noexcept { return fault_; }
  [[nodiscard]] u16 svc_number() const noexcept { return svc_number_; }

  /// Acknowledge a pending svc/breakpoint and make the hart runnable again.
  void resume() noexcept;

  [[nodiscard]] u64 cycles() const noexcept { return cycles_; }
  [[nodiscard]] u64 instructions() const noexcept { return instructions_; }
  /// Net bl/blr-vs-ret depth, kept unconditionally (it is two increments
  /// per call) so attaching an injector never perturbs execution. Used to
  /// gate depth-conditioned injected faults.
  [[nodiscard]] u64 call_depth() const noexcept { return call_depth_; }
  void reset_counters() noexcept { cycles_ = 0; instructions_ = 0; }

  [[nodiscard]] const CycleCosts& costs() const noexcept { return costs_; }
  void set_costs(const CycleCosts& costs) noexcept { costs_ = costs; }

  // --- breakpoints ---------------------------------------------------------
  void add_breakpoint(u64 addr) { breakpoints_.insert(addr); }
  void remove_breakpoint(u64 addr) { breakpoints_.erase(addr); }
  void clear_breakpoints() { breakpoints_.clear(); }
  [[nodiscard]] bool has_breakpoints() const noexcept {
    return !breakpoints_.empty();
  }

  // --- execution trace -------------------------------------------------------
  /// Keep a ring buffer of the last `depth` executed PCs (0 disables).
  /// Used for crash forensics: the kernel dumps it when a process dies.
  void enable_trace(std::size_t depth);
  /// The traced PCs, oldest first.
  [[nodiscard]] std::vector<u64> trace() const;

  [[nodiscard]] const Program& program() const noexcept { return *program_; }
  [[nodiscard]] AddressSpace& memory() noexcept { return *memory_; }
  [[nodiscard]] const pa::PointerAuth& pauth() const noexcept { return *pauth_; }

  /// Forget every memoized IA tag. The hart's PA engine is fixed for its
  /// lifetime, so the memo goes stale only when that engine's keys are
  /// replaced in place; whoever replaces them must call this.
  void flush_pa_memo() noexcept;

  /// Capture / restore the architectural register context (kernel use).
  [[nodiscard]] CpuSnapshot snapshot() const noexcept;
  void restore(const CpuSnapshot& snap) noexcept;

  // --- observability -------------------------------------------------------
  /// Attach the per-task observability channel (nullptr detaches). With no
  /// channel every hook site reduces to a single never-taken null check.
  void set_observer(obs::TaskChannel* obs) noexcept { obs_ = obs; }
  [[nodiscard]] obs::TaskChannel* observer() const noexcept { return obs_; }

  // --- fault injection -----------------------------------------------------
  /// Attach the CPU-level fault-injection cursor (nullptr detaches). Like
  /// the observer, a detached hook is one never-taken null check per step
  /// (per run() call on the fast path); see docs/fault-injection.md for
  /// the fault semantics.
  void set_injector(inject::TaskInjector* injector) noexcept {
    inject_ = injector;
  }

 private:
  friend struct CpuOps;  // the decoded-dispatch op handlers (cpu.cc)

  /// Apply the injector's due fault. Returns true when the fault consumed
  /// the step (kInstrSkip); mutation-only kinds return false and the
  /// fetched instruction executes against the corrupted state.
  bool apply_injection();

  void raise(FaultKind kind, u64 addr) noexcept;
  /// Tight decoded-dispatch loop (preconditions checked by run()). Returns
  /// the number of steps consumed.
  u64 run_fast(u64 max_steps);
  /// Fetch-permission check with a cached executable-region range,
  /// invalidated via AddressSpace::layout_version().
  [[nodiscard]] bool exec_cached(u64 pc) noexcept;
  /// Common instruction epilogue: charge cycles, fire the retire hook.
  void finish(const DecodedInstr& di, u64 instr_pc, u64 cost) noexcept;
  /// expected_pac(kIA, address bits of `pointer`, modifier) through the
  /// hart's tag memo (pacia, autia and retaa).
  [[nodiscard]] u64 ia_tag(u64 pointer, u64 modifier);
  [[nodiscard]] bool eval_cond(Cond cond) const noexcept;
  [[nodiscard]] u64 mem_address(const Instruction& instr, u64& base_out,
                                bool& writeback) noexcept;
  void branch_to(u64 target) noexcept;
  void indirect_branch(u64 target, bool link);

  const Program* program_;
  AddressSpace* memory_;
  const pa::PointerAuth* pauth_;
  std::shared_ptr<const DecodedProgram> decoded_;
  obs::TaskChannel* obs_ = nullptr;
  inject::TaskInjector* inject_ = nullptr;

  std::array<u64, kNumRegs> regs_{};
  u64 pc_ = 0;
  bool flag_n_ = false, flag_z_ = false, flag_c_ = false, flag_v_ = false;

  CycleCosts costs_{};
  RunState state_ = RunState::kReady;
  Fault fault_{};
  u16 svc_number_ = 0;
  u64 cycles_ = 0;
  u64 instructions_ = 0;
  u64 call_depth_ = 0;
  bool steps_exhausted_ = false;
  u64 last_run_steps_ = 0;
  // Cached executable-region range for the fast fetch check.
  u64 exec_lo_ = 0;
  u64 exec_len_ = 0;
  u64 exec_version_ = ~u64{0};
  bool skip_breakpoint_once_ = false;
  u64 skip_breakpoint_pc_ = 0;
  std::unordered_set<u64> breakpoints_;
  // Direct-mapped memo of IA tags keyed by the full (address bits,
  // modifier) pair: a PACStack prologue's pac and its epilogue's aut sign
  // the same pair, and loops re-run them. Exact because the MAC is a pure
  // function of the key and the pair (the random oracle's table already
  // holds every pair the memo holds); kNoTag marks an empty entry, as no
  // truncated tag fills all 64 bits.
  static constexpr u64 kNoTag = ~u64{0};
  static constexpr unsigned kPaMemoBits = 6;
  struct PaTagEntry {
    u64 address;
    u64 modifier;
    u64 tag;
  };
  std::array<PaTagEntry, std::size_t{1} << kPaMemoBits> pa_memo_;
  std::vector<u64> trace_ring_;
  std::size_t trace_next_ = 0;
  bool trace_wrapped_ = false;
};

}  // namespace acs::sim
