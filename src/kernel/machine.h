// The machine/kernel model: scheduling, syscalls, signals, fork, threads.
//
// Plays the role of the ARMv8-A Linux kernel in the paper's system picture:
//   * per-process PA keys, generated at "exec" (process creation) from the
//     machine RNG and never exposed to user space (Section 2.2);
//   * register contexts of suspended tasks are kernel-private (Section 5.4);
//   * signal delivery and sigreturn, optionally hardened with the
//     Appendix B authenticated signal-return chain (asigret);
//   * faults kill the owning process — a wrong PAC guess crashes the
//     process, which is the crash-and-restart premise of Section 4.3.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernel/syscalls.h"
#include "kernel/task.h"
#include "pa/va_layout.h"
#include "sim/cycle_model.h"
#include "sim/isa.h"

namespace acs::obs {
class Recorder;
}  // namespace acs::obs

namespace acs::inject {
class Engine;
}  // namespace acs::inject

namespace acs::kernel {

/// Fixed (pre-ASLR) address-space geometry. The adversary is assumed to
/// know the full layout (Section 3 grants arbitrary read anyway).
inline constexpr u64 kDataBase = 0x0010'0000;
inline constexpr u64 kDataSize = 0x0010'0000;  // 1 MiB of globals/heap
inline constexpr u64 kCanarySlot = kDataBase;  // __stack_chk_guard
inline constexpr u64 kStackBase = 0x0800'0000;
inline constexpr u64 kStackSize = 0x1'0000;    // 64 KiB per task
inline constexpr u64 kStackStride = 0x2'0000;
inline constexpr u64 kShadowBase = 0x0C00'0000;
inline constexpr u64 kShadowSize = 0x1'0000;
inline constexpr u64 kShadowStride = 0x2'0000;
inline constexpr u64 kMaxTasksPerProcess = 64;

struct MachineOptions {
  pa::VaLayout layout{39};
  const char* mac_backend = "siphash";
  bool fpac = false;               ///< ARMv8.6 FPAC faulting aut
  bool sigreturn_defense = true;   ///< Appendix B asigret validation
  /// Bosman & Bos-style *signal canary* (Section 6.3.2's first mitigation
  /// candidate): the kernel places a per-process secret in each signal
  /// frame and checks it on sigreturn. Defeats blind frame forgery but not
  /// the Section 3 adversary, who simply leaves the canary word intact.
  bool sigreturn_canary = false;
  /// Appendix B's closing suggestion: include *all* register values in the
  /// asigret computation (via pacga) so data-register forgeries in the
  /// signal frame are caught too, not just PC/CR.
  bool sigreturn_bind_all_regs = false;
  bool reseed_threads = true;      ///< Section 4.3: CR seeded with tid
  u64 time_slice = 64;             ///< instructions per scheduling quantum
  u64 seed = 1;                    ///< keys, canary, pids
  sim::CycleCosts costs{};         ///< cycle model for every hart
  std::size_t trace_depth = 0;     ///< per-hart PC trace ring (0 = off)
  /// Observability sink (not owned; may be nullptr = all hooks disabled).
  /// The machine registers the program's function table and attaches one
  /// channel per task; see docs/observability.md.
  obs::Recorder* recorder = nullptr;
  /// Fault-injection engine (not owned; may be nullptr = no injection).
  /// The machine installs the engine's CPU-level cursor on the first hart
  /// and polls the kernel-level cursor between scheduling slices; see
  /// docs/fault-injection.md.
  inject::Engine* injector = nullptr;
};

enum class StopReason : u8 {
  kAllDone,          ///< no runnable task remains
  kBreakpoint,       ///< a task hit an adversary breakpoint
  kMaxInstructions,  ///< the step budget was exhausted
};

struct Stop {
  StopReason reason = StopReason::kAllDone;
  u64 pid = 0;
  u64 tid = 0;
};

class Machine {
 public:
  Machine(const sim::Program& program, MachineOptions options = {});

  /// Copy-on-write fork of a *pristine* (never-run) master image: shares
  /// the master's Program and decoded-instruction cache by reference and
  /// loans its init process's address-space pages CoW, so constructing a
  /// fork costs O(regions) instead of re-mapping and re-initialising every
  /// byte. The fork regenerates keys, canaries and pids from its own
  /// `options.seed` in the fresh-constructor order, so a fork of an unrun
  /// master is bit-for-bit identical to `Machine(program, options)`.
  /// workload::Fleet and the fuzz oracles re-fork one master per attempt.
  Machine(const Machine& master, MachineOptions options);

  /// The initial process (created by the constructor, entry at the program
  /// symbol "main" if present, else the program base).
  [[nodiscard]] Process& init_process() noexcept { return *processes_.front(); }
  [[nodiscard]] const Process& init_process() const noexcept {
    return *processes_.front();
  }

  [[nodiscard]] std::vector<std::unique_ptr<Process>>& processes() noexcept {
    return processes_;
  }
  [[nodiscard]] Process* find_process(u64 pid) noexcept;

  /// Schedule round-robin until all tasks exit, a breakpoint fires, or the
  /// instruction budget runs out.
  Stop run(u64 max_instructions = 400'000'000);

  /// Convenience: run to completion and return the init process's state.
  ProcessState run_to_completion(u64 max_instructions = 400'000'000);

  [[nodiscard]] const MachineOptions& options() const noexcept { return options_; }
  [[nodiscard]] const sim::Program& program() const noexcept {
    return *program_;
  }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Spawn an extra process image (same program, fresh keys), e.g. the
  /// worker pool of the NGINX experiment. Returns its pid.
  u64 spawn_process();

  /// Total instructions executed across all processes so far.
  [[nodiscard]] u64 total_instructions() const noexcept;

  /// Arm a breakpoint on every existing task and on tasks created later
  /// (threads, fork children) — the debugger/adversary attach point.
  void add_global_breakpoint(u64 addr);
  void clear_global_breakpoints();

 private:
  Process& create_process(pa::PointerAuth pauth);
  Task& create_task(Process& process, u64 entry_pc, u64 arg, bool is_main);
  void setup_address_space(Process& process);
  void handle_svc(Process& process, Task& task);
  void deliver_pending_signal(Process& process, Task& task);
  void do_sigreturn(Process& process, Task& task);
  void do_throw(Process& process, Task& task);
  void kill_process(Process& process, const sim::Fault& fault,
                    std::string reason);
  /// Deliver the injector's next due kernel-level fault to `process`.
  void apply_kernel_fault(Process& process, Task& task);
  void wake_joiners(Process& process, u64 exited_tid);
  [[nodiscard]] u64 sig_tag(const Process& process,
                            const sim::CpuSnapshot& snap, u64 prev) const;

  void register_functions();

  /// Shared, immutable program image: machines outlive caller temporaries,
  /// and every CoW fork of a master references the same copy.
  std::shared_ptr<const sim::Program> program_;
  /// Predecoded stream for program_, built once and shared by every hart
  /// of this machine and all of its forks.
  std::shared_ptr<const sim::DecodedProgram> decoded_;
  MachineOptions options_;
  Rng rng_;
  u64 next_pid_ = 1;
  std::vector<std::unique_ptr<Process>> processes_;
  // Round-robin cursor over the flattened runnable-task list.
  std::size_t rr_next_ = 0;
  // (pid, tid) of the task scheduled last, kept across run() calls: a task
  // that simply continues in the next run() is no context switch.
  std::optional<std::pair<u64, u64>> last_scheduled_;
  std::vector<u64> global_breakpoints_;
};

/// Signal-frame layout (offsets in bytes from the frame base = post-push SP).
/// The frame lives on the *user* stack — adversary-writable, which is what
/// makes sigreturn-oriented programming possible (Section 6.3.2).
struct SignalFrame {
  static constexpr u64 kPcOffset = 0;
  static constexpr u64 kFlagsOffset = 8;
  static constexpr u64 kAsigretPrevOffset = 16;
  static constexpr u64 kRegsOffset = 24;
  static constexpr u64 kCanaryOffset = 24 + sim::kNumRegs * 8;
  static constexpr u64 kSize = kCanaryOffset + 8;
};

}  // namespace acs::kernel
