// Deterministic fault-injection plans (docs/fault-injection.md).
//
// A plan is a sorted list of faults to deliver at exact points of a
// simulated execution: "at instruction N, once the call depth reaches D,
// do X". Plans are pure functions of a seed, so a campaign that derives
// its plan seeds through exec::trial_seed is bitwise identical for any
// host thread count — a fault campaign replays exactly, crash for crash.
//
// The kinds split into two delivery levels:
//   * CPU-level kinds fire inside sim::Cpu::step() at a precise retired-
//     instruction count (and optionally a minimum call depth), mutating
//     architectural state just before the next instruction executes;
//   * kernel-level kinds fire from kernel::Machine's scheduler loop at a
//     process-instruction threshold, using kernel powers (key material,
//     signal frames, the kill path) the CPU does not have.
//
// `inject` depends only on acs_common; the sim and kernel layers interpret
// the plan themselves, mirroring how src/obs stays dependency-free.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace acs::inject {

enum class FaultKind : u8 {
  // CPU-level (applied by sim::Cpu at an exact instruction count).
  kRetSlotBitflip,  ///< flip one bit in a stack slot near SP (payload picks
                    ///< slot and bit) — a rowhammer/soft-error stand-in
  kChainCorrupt,    ///< write a PAC-field guess into CR (the Section 6.1
                    ///< guessing adversary; payload is the guess value)
  kInstrSkip,       ///< skip the next instruction (fault-skip attack model)
  // Kernel-level (applied by kernel::Machine between scheduling slices).
  kKeyPerturb,      ///< regenerate the process's PA keys mid-run (payload
                    ///< seeds the replacement key set)
  kSigFrameTrash,   ///< overwrite the saved-PC word of the newest signal
                    ///< frame (sigreturn-oriented corruption)
  kBudgetExhaust,   ///< exhaust the instruction budget: the kernel kills the
                    ///< process with sim::FaultKind::kInstrBudget
  // CPU-level, precision kind (never drawn by make_plan — see below).
  kStoreWord,       ///< write `payload` to `addr` (or SP + `addr` when
                    ///< `sp_rel`): the Section 3 adversary's one-word write,
                    ///< delivered at an exact program point for witness
                    ///< replay (docs/verifier.md "Witnesses")
};

inline constexpr std::size_t kNumFaultKinds = 7;

/// Kinds make_plan draws from when PlanConfig::kinds is empty. kStoreWord
/// is excluded: it needs a concrete target address, so a random draw would
/// be meaningless — and keeping the draw set fixed keeps every seeded fault
/// campaign bit-identical across releases.
inline constexpr std::size_t kNumPlannableKinds = 6;

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// True for kinds sim::Cpu applies in step(); false for the kernel kinds.
[[nodiscard]] constexpr bool is_cpu_level(FaultKind kind) noexcept {
  return kind == FaultKind::kRetSlotBitflip ||
         kind == FaultKind::kChainCorrupt ||
         kind == FaultKind::kInstrSkip || kind == FaultKind::kStoreWord;
}

/// One planned fault. `at_instr` is the delivering clock's instruction
/// count (per-hart for CPU-level kinds, per-process for kernel-level). A
/// non-zero `min_depth` delays a CPU-level fault until the hart's call
/// depth reaches it — so e.g. a chain corruption lands while return
/// addresses actually sit on the stack; kDepthGrace bounds the wait.
///
/// A non-zero `at_pc` switches a CPU-level fault to *pc-triggered*
/// delivery: it fires when the hart is about to execute `at_pc` for the
/// `occurrence`-th time (1-based), ignoring at_instr/min_depth. This is the
/// precision mode witness replay uses to land a fault at one architectural
/// moment of one specific activation.
struct PlannedFault {
  u64 at_instr = 0;
  u64 min_depth = 0;
  FaultKind kind = FaultKind::kInstrSkip;
  u64 payload = 0;
  u64 at_pc = 0;       ///< 0 = count-triggered; else fire at this PC
  u64 occurrence = 1;  ///< which execution of at_pc fires (1-based)
  u64 addr = 0;        ///< kStoreWord target (absolute, or SP-offset)
  bool sp_rel = false; ///< kStoreWord: addr is an offset from the live SP
};

/// If `min_depth` was not reached within this many instructions past
/// `at_instr`, the fault fires anyway (the program may never call that
/// deep). Deterministic: depends only on the instruction clock.
inline constexpr u64 kDepthGrace = 4096;

struct PlanConfig {
  u64 seed = 1;
  u64 horizon = 1'000'000;   ///< instructions covered by the plan
  u64 mean_interval = 0;     ///< mean instructions between faults (0 = none)
  u64 max_depth = 4;         ///< min_depth is drawn from [0, max_depth)
  /// Kinds to draw from (uniformly); empty = all six kinds.
  std::vector<FaultKind> kinds;

  // --- correlated burst (docs/fault-injection.md "Correlated bursts") ---
  // A crash storm: on top of the baseline renewal process, a second,
  // denser renewal process runs inside [burst_start, burst_start +
  // burst_len) — the model for a whole pool melting down for a window
  // (rowhammer campaign, bad deploy, thermal event) rather than
  // independent background faults. burst_len == 0 or
  // burst_mean_interval == 0 disables the burst, and a disabled burst
  // leaves the baseline plan bit-identical to older releases.
  u64 burst_start = 0;          ///< first instruction of the burst window
  u64 burst_len = 0;            ///< window length in instructions (0 = off)
  u64 burst_mean_interval = 0;  ///< mean instructions between burst faults
};

/// Draws a plan one fault at a time, in make_plan's RNG order: the baseline
/// renewal process first, then the burst's (docs/fault-injection.md "Lazy
/// plans"). A single-stream cursor (baseline or burst alone) yields its
/// faults strictly increasing in `at_instr`, so delivery can draw them as
/// the clock reaches them; a two-stream cursor's output must be merged
/// first (make_plan does), since the burst is drawn after the baseline.
class PlanCursor {
 public:
  explicit PlanCursor(PlanConfig config);

  /// The next fault in draw order; false once every stream is exhausted.
  [[nodiscard]] bool next(PlannedFault& out);

  /// True when both the baseline and the burst process are enabled.
  [[nodiscard]] bool two_stream() const noexcept {
    return baseline_ && burst_;
  }

  /// Whether this cursor can ever yield a CPU-level (`cpu_level == true`)
  /// or kernel-level fault — from the configured kinds alone, no draws.
  [[nodiscard]] bool may_yield(bool cpu_level) const noexcept;

 private:
  /// Enter the burst stream when it is configured and not yet entered;
  /// otherwise the cursor is exhausted.
  void next_stream() noexcept;

  PlanConfig config_;
  Rng rng_;
  bool baseline_;
  bool burst_;
  bool in_burst_ = false;
  bool done_ = false;
  u64 t_ = 0;     ///< last drawn time of the current stream
  u64 end_ = 0;   ///< current stream's window end (exclusive)
  u64 mean_ = 0;  ///< current stream's mean inter-arrival
};

/// Build a plan: fault times are a renewal process with inter-arrival
/// uniform in [1, 2*mean_interval], kinds/depths/payloads drawn from the
/// seeded RNG; a configured burst adds a second renewal process inside
/// its window, drawn after the baseline from the same seeded stream. The
/// merged plan is sorted by `at_instr`; pure function of the config. This
/// is a PlanCursor drained to exhaustion.
[[nodiscard]] std::vector<PlannedFault> make_plan(const PlanConfig& config);

}  // namespace acs::inject
