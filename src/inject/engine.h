// The fault-injection engine: cursors over a plan plus outcome counters.
//
// One Engine serves one simulated machine (machines are sequential; no
// locking). Attachment mirrors obs::Recorder: kernel::MachineOptions holds
// an `inject::Engine*` that defaults to nullptr, the machine hands the
// engine's CPU-level cursor to the first created hart via
// sim::Cpu::set_injector, and every hook site in the hot path is a single
// never-taken null check when no engine is attached.
//
// A seeded single-stream plan is drawn lazily: the CPU and kernel queues
// are filled from one PlanCursor as delivery reaches them, so an attempt
// that dies on its first fault pays for one draw, not the whole plan
// (docs/fault-injection.md "Lazy plans").
//
// The engine also keeps the campaign summary: how many faults of each
// kind were actually delivered, and — for kChainCorrupt, the Section 6.1
// guessing adversary — how many guesses were attempted and how many hit
// the live PAC field. Campaigns merge summaries in trial order.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/types.h"
#include "inject/plan.h"

namespace acs::inject {

/// Delivered-fault counters for one machine (or one merged campaign).
struct Summary {
  std::array<u64, kNumFaultKinds> injected{};  ///< indexed by FaultKind
  u64 guess_attempts = 0;   ///< kChainCorrupt faults delivered
  u64 guess_successes = 0;  ///< guesses that matched the live PAC field

  void merge(const Summary& other) noexcept {
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
      injected[i] += other.injected[i];
    }
    guess_attempts += other.guess_attempts;
    guess_successes += other.guess_successes;
  }

  [[nodiscard]] u64 total_injected() const noexcept {
    u64 total = 0;
    for (const u64 n : injected) total += n;
    return total;
  }
};

class Engine;

/// CPU-level cursor: owned by the Engine, installed on one hart. The hart
/// polls `due()` once per step (two loads and a compare when armed) and
/// applies the fault itself — the CPU has the architectural knowledge, the
/// cursor only sequences the plan and records outcomes.
class TaskInjector {
 public:
  /// Pc-triggered faults (at_pc != 0) count executions of their PC here, so
  /// while one heads the queue due() must be polled exactly once per
  /// executed step (the Cpu::step contract; quiet_steps() keeps Cpu::run
  /// off run_fast for it).
  [[nodiscard]] bool due(u64 instr, u64 call_depth, u64 pc) noexcept {
    if (!has_head()) return false;
    const PlannedFault& fault = faults_[next_];
    if (fault.at_pc != 0) {
      if (pc != fault.at_pc) return false;
      return ++pc_hits_ >= fault.occurrence;
    }
    if (instr < fault.at_instr) return false;
    return call_depth >= fault.min_depth ||
           instr >= fault.at_instr + kDepthGrace;
  }

  /// Steps the hart at instruction count `instr` can run without polling
  /// due(): the distance to the next count-triggered fault's at_instr; 0
  /// while the next fault is pc-triggered or already inside its due window
  /// (waiting on min_depth, or a kChainCorrupt waiting for a call); ~0 when
  /// no CPU-level fault remains. Cpu::run runs that stretch on run_fast.
  [[nodiscard]] u64 quiet_steps(u64 instr) noexcept {
    if (!has_head()) return ~u64{0};
    const PlannedFault& fault = faults_[next_];
    if (fault.at_pc != 0 || instr >= fault.at_instr) return 0;
    return fault.at_instr - instr;
  }

  /// The due fault, without consuming it — lets the hart defer kinds that
  /// need a particular architectural moment (kChainCorrupt waits for a
  /// call instruction, where the chain register is guaranteed live).
  [[nodiscard]] const PlannedFault& peek() const noexcept {
    return faults_[next_];
  }

  /// The fault to apply now; advances the cursor (and resets the pc-hit
  /// counter for the next pc-triggered fault).
  [[nodiscard]] const PlannedFault& take() noexcept {
    pc_hits_ = 0;
    return faults_[next_++];
  }

  /// PAC-field guess width (bits) for kChainCorrupt faults.
  [[nodiscard]] unsigned guess_window() const noexcept;

  /// Record a delivered fault (guess_success only meaningful for
  /// kChainCorrupt).
  void record(FaultKind kind, bool guess_success = false) noexcept;

 private:
  friend class Engine;
  explicit TaskInjector(Engine* engine) : engine_(engine) {}

  /// True when a fault is queued, drawing the next CPU-level fault from
  /// the engine's lazy plan once the queue has run dry.
  [[nodiscard]] bool has_head() noexcept;

  Engine* engine_;
  std::vector<PlannedFault> faults_;
  std::size_t next_ = 0;
  u64 pc_hits_ = 0;  ///< executions of the current fault's at_pc so far
  bool draws_ = false;  ///< the lazy plan may still yield CPU-level faults
};

class Engine {
 public:
  struct Config {
    std::vector<PlannedFault> plan;  ///< any order; split and sorted here
    /// A seeded plan to draw (make_plan's faults, bit for bit). On its own
    /// and single-stream it is drawn lazily as delivery reaches it;
    /// otherwise it is drained up front, its faults ahead of `plan`'s on
    /// equal at_instr.
    std::optional<PlanConfig> draw;
    /// Width (bits) of the CR PAC-field window a kChainCorrupt guess
    /// targets. Small windows model the paper's partial-pointer reuse
    /// setting where the effective guess space is b bits (Section 6.1).
    unsigned guess_window = 4;
  };

  explicit Engine(Config config);

  /// The CPU-level cursor for the machine's first hart; the machine calls
  /// this once at task creation. Subsequent calls return nullptr (worker
  /// processes are single-hart; one victim hart keeps plans exact).
  [[nodiscard]] TaskInjector* attach() noexcept;

  /// Kernel-level cursor, polled per scheduling slice against the
  /// process's instruction clock.
  [[nodiscard]] bool kernel_due(u64 instr) noexcept {
    if (kernel_next_ == kernel_faults_.size() &&
        !(draws_kernel_ && draw(/*cpu_level=*/false, instr))) {
      return false;
    }
    return instr >= kernel_faults_[kernel_next_].at_instr;
  }
  [[nodiscard]] const PlannedFault& kernel_take() noexcept {
    return kernel_faults_[kernel_next_++];
  }

  void record(FaultKind kind, bool guess_success = false) noexcept;

  [[nodiscard]] unsigned guess_window() const noexcept {
    return guess_window_;
  }
  [[nodiscard]] const Summary& summary() const noexcept { return summary_; }

 private:
  friend class TaskInjector;

  /// Draw from the lazy plan, queueing each fault at its delivery level,
  /// until a fault of the wanted level is queued (true). Stops early
  /// (false) when the plan runs out, or once a drawn fault lies at or past
  /// `instr`: a single stream is sorted, so no wanted fault is due by then.
  bool draw(bool cpu_level, u64 instr);

  TaskInjector cpu_cursor_;
  std::vector<PlannedFault> kernel_faults_;
  std::size_t kernel_next_ = 0;
  std::optional<PlanCursor> lazy_;  ///< set while a lazy plan has faults
  bool draws_kernel_ = false;  ///< lazy_ may still yield kernel-level faults
  unsigned guess_window_;
  bool attached_ = false;
  Summary summary_;
};

inline bool TaskInjector::has_head() noexcept {
  return next_ < faults_.size() ||
         (draws_ && engine_->draw(/*cpu_level=*/true, ~u64{0}));
}

}  // namespace acs::inject
