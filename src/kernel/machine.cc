#include "kernel/machine.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/keys.h"
#include "core/chain.h"
#include "inject/engine.h"
#include "obs/recorder.h"
#include "sim/disasm.h"

namespace acs::kernel {

namespace {

/// Pack the NZCV flags of a snapshot into one word for the signal frame.
[[nodiscard]] u64 pack_flags(const sim::CpuSnapshot& snap) noexcept {
  return (snap.n ? 1U : 0U) | (snap.z ? 2U : 0U) | (snap.c ? 4U : 0U) |
         (snap.v ? 8U : 0U);
}

void unpack_flags(sim::CpuSnapshot& snap, u64 word) noexcept {
  snap.n = (word & 1U) != 0;
  snap.z = (word & 2U) != 0;
  snap.c = (word & 4U) != 0;
  snap.v = (word & 8U) != 0;
}

}  // namespace

Machine::Machine(const sim::Program& program, MachineOptions options)
    : program_(std::make_shared<sim::Program>(program)),
      decoded_(sim::DecodedProgram::build(*program_)),
      options_(options),
      rng_(options.seed) {
  register_functions();
  spawn_process();
}

Machine::Machine(const Machine& master, MachineOptions options)
    : program_(master.program_),
      decoded_(master.decoded_),
      options_(options),
      rng_(options.seed) {
  register_functions();
  // Replay the fresh-constructor sequence, but loan the master's fully
  // initialised init-process memory image copy-on-write instead of mapping
  // and writing it from scratch. The RNG draws (keys, canary, signal
  // canary) happen in the exact fresh-constructor order, so with the same
  // options this fork is indistinguishable from Machine(program, options).
  const Process& master_init = *master.processes_.front();
  const auto keys = crypto::random_key_set(rng_);
  pa::PointerAuth pauth{keys, options_.layout, options_.mac_backend,
                        options_.fpac};
  auto process =
      std::make_unique<Process>(next_pid_++, *program_, std::move(pauth));
  process->mem = master_init.mem;  // CoW: shares every page with the master
  process->mem.raw_write_u64(kCanarySlot, rng_.next());
  process->signal_canary = rng_.next();
  process->sig_handlers = master_init.sig_handlers;
  processes_.push_back(std::move(process));
  const u64 entry = program_->symbols.contains("main")
                        ? program_->symbols.at("main")
                        : program_->base;
  Task& main_task =
      create_task(*processes_.back(), entry, /*arg=*/0, /*is_main=*/true);
  if (main_task.obs != nullptr) {
    // Every mapped page starts out shared with the master; private_pages()
    // grows from 0 only as this fork writes.
    u64 pages_shared = 0;
    for (const auto& region : processes_.back()->mem.regions()) {
      pages_shared += (region.size + 4095) / 4096;
    }
    main_task.obs->machine_fork(processes_.back()->pid(), pages_shared,
                                main_task.cpu().cycles());
  }
}

void Machine::register_functions() {
  if (options_.recorder == nullptr) return;
  // Register the program's function table for profile symbolisation.
  std::vector<std::pair<u64, std::string>> functions;
  for (const auto& [name, addr] : program_->symbols) {
    if (program_->is_function_entry(addr)) functions.emplace_back(addr, name);
  }
  options_.recorder->set_functions(std::move(functions));
}

Process* Machine::find_process(u64 pid) noexcept {
  for (auto& process : processes_) {
    if (process->pid() == pid) return process.get();
  }
  return nullptr;
}

u64 Machine::spawn_process() {
  // "exec": the kernel generates a fresh key set for the new image.
  const auto keys = crypto::random_key_set(rng_);
  pa::PointerAuth pauth{keys, options_.layout, options_.mac_backend,
                        options_.fpac};
  Process& process = create_process(std::move(pauth));
  const u64 entry = program_->symbols.contains("main")
                        ? program_->symbols.at("main")
                        : program_->base;
  create_task(process, entry, /*arg=*/0, /*is_main=*/true);
  return process.pid();
}

Process& Machine::create_process(pa::PointerAuth pauth) {
  auto process =
      std::make_unique<Process>(next_pid_++, *program_, std::move(pauth));
  setup_address_space(*process);
  processes_.push_back(std::move(process));
  return *processes_.back();
}

void Machine::setup_address_space(Process& process) {
  // Code is mapped read+execute: W^X (assumption A1).
  process.mem.map(program_->base, program_->size_bytes(), sim::kPermRx, "code");
  process.mem.map(kDataBase, kDataSize, sim::kPermRw, "data");
  // __stack_chk_guard: reference canary for -mstack-protector-strong. It
  // deliberately lives in ordinary data memory — readable and writable by
  // the Section 3 adversary, which is precisely why canaries are the
  // weakest scheme in the paper's comparison.
  process.mem.raw_write_u64(kCanarySlot, rng_.next());
  process.signal_canary = rng_.next();  // kernel-private (Bosman & Bos)
  for (const auto& [addr, value] : program_->data_init) {
    process.mem.raw_write_u64(addr, value);
  }
}

Task& Machine::create_task(Process& process, u64 entry_pc, u64 arg,
                           bool is_main) {
  const u64 tid = static_cast<u64>(process.tasks.size());
  if (tid >= kMaxTasksPerProcess) {
    throw std::runtime_error{"create_task: too many tasks"};
  }
  auto task = std::make_unique<Task>(tid, *program_, process.mem,
                                     process.pauth(), decoded_);
  task->stack_base = kStackBase + tid * kStackStride;
  task->stack_size = kStackSize;
  // A forked child's address-space copy already carries the parent's stack
  // and shadow-stack mappings; only map regions that do not exist yet.
  if (!process.mem.is_mapped(task->stack_base)) {
    process.mem.map(task->stack_base, task->stack_size, sim::kPermRw,
                    "stack" + std::to_string(tid));
  }
  const u64 shadow_base = kShadowBase + tid * kShadowStride;
  if (!process.mem.is_mapped(shadow_base)) {
    process.mem.map(shadow_base, kShadowSize, sim::kPermRw,
                    "shadow_stack" + std::to_string(tid));
  }

  sim::Cpu& cpu = task->cpu();
  cpu.set_costs(options_.costs);
  if (options_.trace_depth > 0) cpu.enable_trace(options_.trace_depth);
  for (u64 bp : global_breakpoints_) cpu.add_breakpoint(bp);
  cpu.set_pc(entry_pc);
  cpu.set_reg(sim::Reg::kSp, task->stack_base + task->stack_size);
  cpu.set_reg(sim::kSsp, shadow_base);  // ShadowCallStack scheme's X18
  cpu.set_reg(sim::Reg::kX0, arg);
  // Section 4.3: re-seed the ACS for each thread so thread stacks form
  // disjoint chains — CR starts at the thread id instead of 0. Note tid 0
  // (the main thread) naturally gets init = 0.
  cpu.set_reg(sim::kCr, options_.reseed_threads ? tid : 0);
  if (!is_main && program_->symbols.contains("__thread_exit")) {
    cpu.set_reg(sim::kLr, program_->symbols.at("__thread_exit"));
  }
  if (options_.recorder != nullptr) {
    task->obs = options_.recorder->attach(
        process.pid(), tid,
        "pid" + std::to_string(process.pid()) + "/tid" + std::to_string(tid));
    cpu.set_observer(task->obs);
  }
  if (options_.injector != nullptr) {
    // The engine hands its CPU-level cursor to the first hart only, so a
    // plan's instruction counts stay exact on one victim hart.
    cpu.set_injector(options_.injector->attach());
  }
  process.tasks.push_back(std::move(task));
  return *process.tasks.back();
}

void Machine::wake_joiners(Process& process, u64 exited_tid) {
  for (auto& task : process.tasks) {
    if (task->state == TaskState::kBlocked &&
        task->join_target == exited_tid) {
      task->state = TaskState::kRunnable;
    }
  }
}

void Machine::kill_process(Process& process, const sim::Fault& fault,
                           std::string reason) {
  process.state = ProcessState::kKilled;
  process.kill_fault = fault;
  process.kill_reason = std::move(reason);
  // Observability: attribute the fatal fault to the faulting hart, or to
  // the first task for kernel-detected kills (abort, sigreturn forgery).
  Task* culprit = nullptr;
  for (auto& task : process.tasks) {
    if (task->cpu().state() == sim::RunState::kFaulted) {
      culprit = task.get();
      break;
    }
  }
  if (culprit == nullptr && !process.tasks.empty()) {
    culprit = process.tasks.front().get();
  }
  if (culprit != nullptr && culprit->obs != nullptr) {
    culprit->obs->fault(static_cast<u64>(fault.kind), fault.address,
                        culprit->cpu().cycles());
  }
  if (options_.trace_depth > 0) {
    // Crash forensics: disassemble the faulting hart's last instructions.
    for (auto& task : process.tasks) {
      if (task->cpu().state() != sim::RunState::kFaulted) continue;
      for (u64 pc : task->cpu().trace()) {
        if (program_->contains(pc)) {
          process.crash_trace.push_back(
              std::to_string(pc) + ": " + sim::disassemble(program_->at(pc)));
        }
      }
      break;
    }
  }
  for (auto& task : process.tasks) task->state = TaskState::kExited;
}

void Machine::apply_kernel_fault(Process& process, Task& task) {
  const inject::PlannedFault fault = options_.injector->kernel_take();
  options_.injector->record(fault.kind);
  sim::Cpu& cpu = task.cpu();
  if (task.obs != nullptr) {
    task.obs->fault_injected(static_cast<u64>(fault.kind), fault.payload,
                             cpu.cycles());
  }
  switch (fault.kind) {
    case inject::FaultKind::kKeyPerturb: {
      // Mid-run key corruption: the process's PA keys are replaced, so
      // everything signed under the old keys stops authenticating. The
      // harts keep their pointer into the process's engine, which is
      // updated in place, so their IA tag memos must forget the old keys.
      Rng perturb(fault.payload | 1);
      process.pauth() =
          pa::PointerAuth{crypto::random_key_set(perturb), options_.layout,
                          options_.mac_backend, options_.fpac};
      for (auto& t : process.tasks) t->cpu().flush_pa_memo();
      break;
    }
    case inject::FaultKind::kSigFrameTrash: {
      // Corrupt the saved-PC word of the newest signal frame (at SP while
      // a handler runs). With no live frame, scribble just below SP — the
      // slot the next frame push would claim.
      const u64 sp = cpu.reg(sim::Reg::kSp);
      const u64 addr =
          task.signal_depth > 0 ? sp + SignalFrame::kPcOffset : sp - 8;
      if (process.mem.is_mapped(addr)) {
        process.mem.raw_write_u64(addr, 0x5af3'0000'0000'0000ULL ^
                                            fault.payload);
      }
      break;
    }
    case inject::FaultKind::kBudgetExhaust:
      // Watchdog model: the process's instruction budget is declared spent
      // and the kernel kills it — the "hang detected" path of the fleet
      // supervisor.
      kill_process(process,
                   sim::Fault{sim::FaultKind::kInstrBudget, 0, cpu.pc()},
                   "injected instruction-budget exhaustion");
      break;
    case inject::FaultKind::kRetSlotBitflip:
    case inject::FaultKind::kChainCorrupt:
    case inject::FaultKind::kInstrSkip:
    case inject::FaultKind::kStoreWord:
      break;  // CPU-level kinds never land on the kernel cursor
  }
}

u64 Machine::sig_tag(const Process& process, const sim::CpuSnapshot& snap,
                     u64 prev) const {
  // Appendix B: asigret_n = H_GA(sigret_n, asigret_{n-1}), extended to also
  // bind CR (the PACStack chain register) by chaining a second application.
  // With sigreturn_bind_all_regs, every general-purpose register is folded
  // in via the same pacga-style chaining — the appendix's suggestion for
  // protecting the whole register file in the signal frame.
  const auto& pauth = process.pauth();
  u64 running = pauth.raw_tag(crypto::KeyId::kGA, snap.pc, prev);
  const u64 cr = snap.regs[static_cast<std::size_t>(sim::kCr)];
  running = pauth.raw_tag(crypto::KeyId::kGA, cr, running);
  if (options_.sigreturn_bind_all_regs) {
    for (std::size_t i = 0; i < sim::kNumRegs; ++i) {
      running = pauth.raw_tag(crypto::KeyId::kGA, snap.regs[i], running);
    }
  }
  return running;
}

void Machine::deliver_pending_signal(Process& process, Task& task) {
  if (process.pending_signals.empty()) return;
  const u16 signum = process.pending_signals.front();
  const u64 handler =
      signum < process.sig_handlers.size() ? process.sig_handlers[signum] : 0;
  process.pending_signals.pop_front();
  if (handler == 0) return;  // default action: ignore

  sim::Cpu& cpu = task.cpu();
  const sim::CpuSnapshot snap = cpu.snapshot();

  // Push the signal frame onto the *user* stack (adversary-writable).
  const u64 sp = snap.regs[static_cast<std::size_t>(sim::Reg::kSp)];
  const u64 frame = sp - SignalFrame::kSize;
  process.mem.raw_write_u64(frame + SignalFrame::kPcOffset, snap.pc);
  process.mem.raw_write_u64(frame + SignalFrame::kFlagsOffset, pack_flags(snap));
  process.mem.raw_write_u64(frame + SignalFrame::kAsigretPrevOffset,
                            task.kernel_asigret);
  for (std::size_t i = 0; i < sim::kNumRegs; ++i) {
    process.mem.raw_write_u64(frame + SignalFrame::kRegsOffset + 8 * i,
                              snap.regs[i]);
  }

  if (options_.sigreturn_canary) {
    process.mem.raw_write_u64(frame + SignalFrame::kCanaryOffset,
                              process.signal_canary);
  }

  if (options_.sigreturn_defense) {
    // Kernel-side reference: bind the interrupted context to the previous
    // token; the reference value itself never leaves kernel memory.
    task.kernel_asigret = sig_tag(process, snap, task.kernel_asigret);
    ++task.signal_depth;
  }

  cpu.set_reg(sim::Reg::kSp, frame);
  cpu.set_reg(sim::Reg::kX0, signum);
  if (program_->symbols.contains("__sigtramp")) {
    cpu.set_reg(sim::kLr, program_->symbols.at("__sigtramp"));
  }
  cpu.set_pc(handler);
  if (task.obs != nullptr) {
    task.obs->signal_deliver(signum, handler, cpu.cycles());
  }
}

void Machine::do_sigreturn(Process& process, Task& task) {
  sim::Cpu& cpu = task.cpu();
  const u64 frame = cpu.reg(sim::Reg::kSp);

  sim::CpuSnapshot snap;
  snap.pc = process.mem.raw_read_u64(frame + SignalFrame::kPcOffset);
  unpack_flags(snap, process.mem.raw_read_u64(frame + SignalFrame::kFlagsOffset));
  const u64 asigret_prev =
      process.mem.raw_read_u64(frame + SignalFrame::kAsigretPrevOffset);
  for (std::size_t i = 0; i < sim::kNumRegs; ++i) {
    snap.regs[i] =
        process.mem.raw_read_u64(frame + SignalFrame::kRegsOffset + 8 * i);
  }

  if (options_.sigreturn_canary) {
    const u64 canary =
        process.mem.raw_read_u64(frame + SignalFrame::kCanaryOffset);
    if (canary != process.signal_canary) {
      kill_process(process,
                   sim::Fault{sim::FaultKind::kStackCheck, frame, snap.pc},
                   "sigreturn canary mismatch");
      return;
    }
  }

  if (options_.sigreturn_defense) {
    // Appendix B validation: the frame's claimed context (PC, CR, and
    // optionally every register) plus the previous token must hash to the
    // kernel's secure reference. A forged frame cannot produce a matching
    // token without the GA key.
    const u64 expected = sig_tag(process, snap, asigret_prev);
    if (task.signal_depth == 0 || expected != task.kernel_asigret) {
      kill_process(process, sim::Fault{sim::FaultKind::kPacAuthFailure, frame,
                                       snap.pc},
                   "sigreturn validation failure");
      return;
    }
    task.kernel_asigret = asigret_prev;
    --task.signal_depth;
  }

  cpu.restore(snap);
  // The sigreturn moved the PC outside call/return discipline: resync the
  // profiler's shadow stack to the interrupted function.
  if (task.obs != nullptr) task.obs->resync(snap.pc);
}

void Machine::do_throw(Process& process, Task& task) {
  // Kernel-assisted exception unwinding with ACS validation on every frame
  // (the Section 9.1 libunwind direction): walk activation records using
  // the compiler's unwind metadata; under the PACStack kinds each popped
  // link must authenticate, so an attacker-corrupted frame turns the throw
  // into a kill instead of a redirected unwind.
  sim::Cpu& cpu = task.cpu();
  const u64 tag = cpu.reg(sim::Reg::kX0);
  const u64 value = cpu.reg(sim::Reg::kX1);

  u64 pc = cpu.pc();
  u64 sp = cpu.reg(sim::Reg::kSp);
  u64 cr = cpu.reg(sim::kCr);
  u64 ssp = cpu.reg(sim::kSsp);

  const core::AcsChain masked{process.pauth(), /*masking=*/true};
  const core::AcsChain unmasked{process.pauth(), /*masking=*/false};
  const auto& layout = process.pauth().layout();

  const auto fail = [&](const char* why, sim::FaultKind kind) {
    kill_process(process, sim::Fault{kind, pc, cpu.pc()}, why);
  };

  for (unsigned depth = 0; depth < 1024; ++depth) {
    const sim::UnwindInfo* info = program_->unwind_for(pc);
    if (info == nullptr) {
      fail("unhandled exception", sim::FaultKind::kUndefined);
      return;
    }
    if (const u64 pad = info->catch_pad(tag); pad != 0) {
      // Land: the walk state is exactly this activation's body state.
      cpu.set_pc(pad);
      cpu.set_reg(sim::Reg::kSp, sp);
      cpu.set_reg(sim::kCr, cr);
      cpu.set_reg(sim::kSsp, ssp);
      cpu.set_reg(sim::Reg::kX0, value);
      // Kernel-assisted unwind: resync the profiler at the landing pad.
      if (task.obs != nullptr) task.obs->resync(pad);
      return;
    }

    // Pop one activation record.
    sp += info->frame_bytes;
    const u64 entry_sp = sp + info->prologue_bytes;
    switch (info->kind) {
      case sim::UnwindKind::kNoFrame:
        if (depth != 0) {
          fail("cannot unwind leaf frame mid-stack", sim::FaultKind::kUndefined);
          return;
        }
        pc = cpu.reg(sim::kLr);
        break;
      case sim::UnwindKind::kSignedNoFrame: {
        if (depth != 0) {
          fail("cannot unwind leaf frame mid-stack", sim::FaultKind::kUndefined);
          return;
        }
        const auto result =
            process.pauth().aut(crypto::KeyId::kIA, cpu.reg(sim::kLr), entry_sp);
        if (!result.ok) {
          fail("exception unwind: signed LR invalid",
               sim::FaultKind::kPacAuthFailure);
          return;
        }
        pc = result.pointer;
        break;
      }
      case sim::UnwindKind::kFrameRecord:
        pc = process.mem.raw_read_u64(sp + 8);
        break;
      case sim::UnwindKind::kSignedFrameRecord: {
        const u64 stored = process.mem.raw_read_u64(sp + 8);
        const auto result =
            process.pauth().aut(crypto::KeyId::kIA, stored, entry_sp);
        if (!result.ok) {
          fail("exception unwind: signed return address invalid",
               sim::FaultKind::kPacAuthFailure);
          return;
        }
        pc = result.pointer;
        break;
      }
      case sim::UnwindKind::kShadowStack:
        ssp -= 8;
        pc = process.mem.raw_read_u64(ssp);
        break;
      case sim::UnwindKind::kAcsChainMasked:
      case sim::UnwindKind::kAcsChainUnmasked: {
        const u64 stored = process.mem.raw_read_u64(sp);
        const auto& chain =
            info->kind == sim::UnwindKind::kAcsChainMasked ? masked : unmasked;
        if (!chain.verify(cr, stored)) {
          fail("exception unwind: ACS verification failed",
               sim::FaultKind::kPacAuthFailure);
          return;
        }
        pc = layout.address_bits(cr);
        cr = stored;
        break;
      }
    }
    sp = entry_sp;
  }
  fail("exception unwind: depth limit", sim::FaultKind::kUndefined);
}

void Machine::handle_svc(Process& process, Task& task) {
  sim::Cpu& cpu = task.cpu();
  const auto call = static_cast<Syscall>(cpu.svc_number());
  if (task.obs != nullptr) {
    // One complete span per syscall: the svc instruction's cycle cost is
    // the modelled kernel residency.
    const u64 exit_ts = cpu.cycles();
    const u64 enter_ts = exit_ts - std::min<u64>(exit_ts, options_.costs.svc);
    task.obs->syscall(cpu.svc_number(), enter_ts, exit_ts);
  }
  cpu.resume();

  switch (call) {
    case Syscall::kExit:
      process.state = ProcessState::kExited;
      process.exit_code = cpu.reg(sim::Reg::kX0);
      for (auto& t : process.tasks) t->state = TaskState::kExited;
      break;
    case Syscall::kWriteInt:
      process.output.push_back(cpu.reg(sim::Reg::kX0));
      break;
    case Syscall::kGetPid:
      cpu.set_reg(sim::Reg::kX0, process.pid());
      break;
    case Syscall::kGetTid:
      cpu.set_reg(sim::Reg::kX0, task.tid());
      break;
    case Syscall::kFork: {
      // Clone address space and PA engine (fork *inherits* keys — the
      // premise of the Section 4.3 sibling-guessing analysis).
      Process& child = create_process(process.pauth());
      child.mem = process.mem;  // full copy-on-fork of user memory
      child.sig_handlers = process.sig_handlers;
      Task& child_task = create_task(child, cpu.pc(), 0, /*is_main=*/true);
      sim::CpuSnapshot snap = cpu.snapshot();
      snap.regs[static_cast<std::size_t>(sim::Reg::kX0)] = 0;  // child sees 0
      child_task.cpu().restore(snap);
      child_task.kernel_asigret = task.kernel_asigret;
      child_task.signal_depth = task.signal_depth;
      cpu.set_reg(sim::Reg::kX0, child.pid());
      break;
    }
    case Syscall::kThreadCreate: {
      const u64 entry = cpu.reg(sim::Reg::kX0);
      const u64 arg = cpu.reg(sim::Reg::kX1);
      if (!program_->is_function_entry(entry)) {
        kill_process(process, sim::Fault{sim::FaultKind::kCfi, entry, cpu.pc()},
                     "thread entry is not a function");
        return;
      }
      Task& thread = create_task(process, entry, arg, /*is_main=*/false);
      cpu.set_reg(sim::Reg::kX0, thread.tid());
      break;
    }
    case Syscall::kThreadExit:
      task.state = TaskState::kExited;
      wake_joiners(process, task.tid());
      break;
    case Syscall::kThreadJoin: {
      const u64 target_tid = cpu.reg(sim::Reg::kX0);
      if (target_tid >= process.tasks.size() || target_tid == task.tid()) {
        cpu.set_reg(sim::Reg::kX0, static_cast<u64>(-1));  // EINVAL-ish
        break;
      }
      if (process.tasks[target_tid]->state != TaskState::kExited) {
        task.state = TaskState::kBlocked;
        task.join_target = target_tid;
      }
      cpu.set_reg(sim::Reg::kX0, 0);
      break;
    }
    case Syscall::kYield:
      break;
    case Syscall::kSigaction: {
      const u64 signum = cpu.reg(sim::Reg::kX0);
      const u64 handler = cpu.reg(sim::Reg::kX1);
      if (signum < process.sig_handlers.size()) {
        process.sig_handlers[signum] = handler;
      }
      break;
    }
    case Syscall::kKill: {
      const u64 target_pid = cpu.reg(sim::Reg::kX0);
      const u64 signum = cpu.reg(sim::Reg::kX1);
      if (Process* target = find_process(target_pid);
          target != nullptr && target->state == ProcessState::kLive) {
        target->pending_signals.push_back(static_cast<u16>(signum));
      }
      break;
    }
    case Syscall::kSigreturn:
      do_sigreturn(process, task);
      break;
    case Syscall::kThrow:
      do_throw(process, task);
      break;
    case Syscall::kAbort:
      kill_process(process,
                   sim::Fault{sim::FaultKind::kStackCheck, 0, cpu.pc()},
                   "abort (stack smashing detected)");
      break;
    default:
      kill_process(process,
                   sim::Fault{sim::FaultKind::kUndefined, cpu.svc_number(),
                              cpu.pc()},
                   "unknown syscall");
      break;
  }
}

Stop Machine::run(u64 max_instructions) {
  u64 executed = 0;
  // Reused across slices: rebuilding the runnable list is per-quantum work
  // and must not allocate each time.
  std::vector<std::pair<Process*, Task*>> runnable;
  for (;;) {
    // Fair round-robin over every runnable task of every live process.
    runnable.clear();
    for (auto& candidate : processes_) {
      if (candidate->state != ProcessState::kLive) continue;
      for (auto& tcand : candidate->tasks) {
        if (tcand->state == TaskState::kRunnable) {
          runnable.emplace_back(candidate.get(), tcand.get());
        }
      }
    }
    if (runnable.empty()) return Stop{StopReason::kAllDone, 0, 0};
    auto [process, task] = runnable[rr_next_ % runnable.size()];
    ++rr_next_;
    if (executed >= max_instructions) {
      return Stop{StopReason::kMaxInstructions, process->pid(), task->tid()};
    }

    const std::pair<u64, u64> scheduled{process->pid(), task->tid()};
    if (task->obs != nullptr && last_scheduled_ != scheduled) {
      task->obs->context_switch(task->cpu().cycles());
    }
    last_scheduled_ = scheduled;

    // Kernel-level fault injection, polled once per scheduling slice
    // against the process's instruction clock.
    if (options_.injector != nullptr) {
      while (process->state == ProcessState::kLive &&
             options_.injector->kernel_due(process->instructions())) {
        apply_kernel_fault(*process, *task);
      }
      if (process->state != ProcessState::kLive) continue;
    }

    deliver_pending_signal(*process, *task);

    sim::Cpu& cpu = task->cpu();
    // A lone task runs every slice left in the budget back to back: until
    // its next svc, nothing between its slices could change, as no other
    // task can run, send a signal or wake. That needs no injector to poll,
    // no signal left to deliver at the next slice boundary, and no
    // breakpoint (one exactly on a slice boundary would cost the slice loop
    // an extra, empty slice).
    const u64 slice = options_.time_slice;
    u64 slices = 1;
    if (runnable.size() == 1 && options_.injector == nullptr &&
        process->pending_signals.empty() && !cpu.has_breakpoints() &&
        slice != 0) {
      const u64 left = max_instructions - executed;
      slices = std::min(left / slice + (left % slice != 0),
                        ~u64{0} / slice);
    }
    // Cpu::run is the tight decoded-dispatch loop when no breakpoints/trace
    // are attached (an injector steps only its faults' due windows).
    // last_run_steps counts every step() slot (including faulting and
    // injected-skip steps), keeping `executed` accounting identical to
    // stepping here.
    const sim::RunState state = cpu.run(slices * slice);
    const u64 steps = cpu.last_run_steps();
    executed += steps;
    // Advance the round-robin cursor by the slices the one-slice loop would
    // have used (one was taken when the task was picked).
    if (steps > slice) rr_next_ += (steps - 1) / slice;
    if (state == sim::RunState::kSvc) {
      handle_svc(*process, *task);  // end of slice after a syscall
    } else if (state == sim::RunState::kBreakpoint) {
      // A zero-step run means the hart was still paused from an earlier
      // breakpoint stop (caller re-entered without resume()); report it
      // again, charging the one reporting step exactly as step() did.
      if (steps == 0) ++executed;
      return Stop{StopReason::kBreakpoint, process->pid(), task->tid()};
    } else if (state == sim::RunState::kHalted) {
      // hlt: treat as a clean exit of the whole process.
      process->state = ProcessState::kExited;
      process->exit_code = cpu.reg(sim::Reg::kX0);
      for (auto& t : process->tasks) t->state = TaskState::kExited;
    } else if (state == sim::RunState::kFaulted) {
      // Architectural fault: the kernel delivers a fatal signal — the
      // whole process dies (the paper's "failed guess crashes" premise).
      kill_process(*process, cpu.fault(), sim::fault_name(cpu.fault().kind));
    }
  }
}

ProcessState Machine::run_to_completion(u64 max_instructions) {
  run(max_instructions);
  return init_process().state;
}

void Machine::add_global_breakpoint(u64 addr) {
  global_breakpoints_.push_back(addr);
  for (auto& process : processes_) {
    for (auto& task : process->tasks) task->cpu().add_breakpoint(addr);
  }
}

void Machine::clear_global_breakpoints() {
  global_breakpoints_.clear();
  for (auto& process : processes_) {
    for (auto& task : process->tasks) task->cpu().clear_breakpoints();
  }
}

u64 Machine::total_instructions() const noexcept {
  u64 total = 0;
  for (const auto& process : processes_) total += process->instructions();
  return total;
}

}  // namespace acs::kernel
