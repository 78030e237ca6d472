#include "attack/scenarios.h"

#include <algorithm>

#include "attack/adversary.h"
#include "compiler/codegen.h"
#include "core/chain.h"
#include "kernel/machine.h"
#include "workload/callgraph_gen.h"

namespace acs::attack {

namespace {

using compiler::IrBuilder;
using compiler::Scheme;

constexpr u64 kMarkA = 11;
constexpr u64 kMarkB = 22;
constexpr u64 kMarkEvil = 0xE71;

/// The Listing 6 victim, extended with a second path: func calls A then B
/// (A and B are non-leaf siblings called from the same frame, so under
/// pac-ret their signed return addresses share the SP modifier); func2
/// reaches B along a different call-graph path, giving a PACStack attacker
/// a *different* chain value to attempt substituting.
[[nodiscard]] compiler::ProgramIr make_reuse_victim() {
  IrBuilder builder;
  const auto helper = builder.begin_function("helper");
  builder.compute(5);
  const auto fn_a = builder.begin_function("A");
  builder.call(helper);
  builder.vuln_site(1);  // stack_disclose()
  const auto fn_b = builder.begin_function("B", /*local_bytes=*/32);
  builder.call(helper);
  builder.vuln_site(2);  // stack_overwrite(buff)
  const auto func = builder.begin_function("func");
  builder.call(fn_a);
  builder.write_int(kMarkA);
  builder.call(fn_b);
  builder.write_int(kMarkB);
  const auto func2 = builder.begin_function("func2");
  builder.call(fn_b);
  builder.write_int(kMarkB);
  const auto entry = builder.begin_function("entry");
  builder.call(func);
  builder.call(func2);
  return builder.build(entry);
}

struct ReturnSlot {
  u64 addr = 0;
  u64 value = 0;
};

/// Innermost stack word that looks like a stored return address: either a
/// signed code pointer (non-zero PAC field) or a plain code pointer.
[[nodiscard]] std::vector<ReturnSlot> find_return_slots(
    const Adversary& adv, const kernel::Task& task,
    const kernel::Process& process) {
  const auto& layout = process.pauth().layout();
  const auto& program = process.program();
  std::vector<ReturnSlot> slots;
  const u64 sp = task.cpu().reg(sim::Reg::kSp);
  const u64 top = task.stack_base + task.stack_size;
  for (u64 addr = sp; addr + 8 <= top; addr += 8) {
    const auto value = adv.read(addr);
    if (!value || *value == 0) continue;
    const u64 stripped = layout.strip(*value);
    if (stripped >= program.base && stripped < program.end()) {
      slots.push_back({addr, *value});
    }
  }
  return slots;
}

/// Prefer a signed slot (PAC field set) when present — PACStack's stored
/// aret, pac-ret's signed LR; fall back to the innermost plain pointer.
[[nodiscard]] const ReturnSlot* innermost_slot(
    const std::vector<ReturnSlot>& slots, const pa::VaLayout& layout,
    bool prefer_signed) {
  if (slots.empty()) return nullptr;
  if (prefer_signed) {
    for (const auto& slot : slots) {
      if (layout.pac_field(slot.value) != 0) return &slot;
    }
  }
  return &slots.front();
}

[[nodiscard]] ScenarioResult finish(kernel::Process& process) {
  ScenarioResult result;
  if (process.state == kernel::ProcessState::kKilled) {
    result.outcome = AttackOutcome::kCrashed;
    result.fault = process.kill_fault.kind;
    result.detail = process.kill_reason;
    return result;
  }
  const auto marks_a = std::count(process.output.begin(), process.output.end(),
                                  kMarkA);
  const bool evil = std::count(process.output.begin(), process.output.end(),
                               kMarkEvil) > 0;
  if (marks_a > 1 || evil) {
    result.outcome = AttackOutcome::kHijacked;
    result.detail = evil ? "attacker payload executed"
                         : "return diverted to a reused call site";
  } else {
    result.outcome = AttackOutcome::kBenign;
    result.detail = "program completed normally";
  }
  return result;
}

/// Run the machine to completion, transparently resuming breakpoints the
/// attack no longer cares about.
void run_ignoring_breakpoints(Adversary& adv) {
  for (int i = 0; i < 64; ++i) {
    const auto stop = adv.resume();
    if (stop.reason != kernel::StopReason::kBreakpoint) return;
  }
}

}  // namespace

std::string outcome_name(AttackOutcome outcome) {
  switch (outcome) {
    case AttackOutcome::kHijacked: return "HIJACKED";
    case AttackOutcome::kCrashed: return "detected (crash)";
    case AttackOutcome::kBenign: return "no effect";
  }
  return "?";
}

ScenarioResult run_reuse_attack(Scheme scheme, bool contiguous_overflow,
                                u64 seed) {
  const auto program =
      compiler::compile_ir(make_reuse_victim(), {.scheme = scheme});
  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  const bool prefer_signed = scheme == Scheme::kPacStack ||
                             scheme == Scheme::kPacStackNoMask ||
                             scheme == Scheme::kPacRet;

  adv.break_at("vuln_1");
  adv.break_at("vuln_2");
  const u64 vuln_2 = program.symbol("vuln_2");

  // Walk the vulnerable sites: harvest return-address-looking words at each
  // stop; at the first write site (inside B) where the harvest pool offers
  // a *different* value of matching kind, substitute it.
  std::vector<ReturnSlot> pool;
  bool substituted = false;
  auto stop = adv.run_until_break();
  for (int round = 0; round < 16; ++round) {
    if (stop.reason != kernel::StopReason::kBreakpoint) break;
    auto slots = find_return_slots(adv, task, process);
    const bool at_write_site = task.cpu().pc() == vuln_2;
    if (at_write_site && !substituted) {
      const ReturnSlot* victim = innermost_slot(slots, layout, prefer_signed);
      u64 substitute = 0;
      if (victim != nullptr) {
        auto candidates = pool;
        candidates.insert(candidates.end(), slots.begin(), slots.end());
        for (const auto& candidate : candidates) {
          if (candidate.value != victim->value &&
              (layout.pac_field(candidate.value) != 0) ==
                  (layout.pac_field(victim->value) != 0)) {
            substitute = candidate.value;
            break;
          }
        }
      }
      if (substitute != 0) {
        if (contiguous_overflow) {
          // Linear overflow from the buffer: every word from SP up to the
          // victim slot is clobbered (this is what tramples the canary).
          const u64 sp = task.cpu().reg(sim::Reg::kSp);
          for (u64 addr = sp; addr < victim->addr; addr += 8) {
            adv.write(addr, 0x4141414141414141ULL);
          }
        }
        adv.write(victim->addr, substitute);
        substituted = true;
      }
    }
    pool.insert(pool.end(), slots.begin(), slots.end());
    stop = adv.resume();
  }

  run_ignoring_breakpoints(adv);
  return finish(process);
}

ScenarioResult run_shadow_stack_attack(bool also_corrupt_shadow, u64 seed) {
  const auto program = compiler::compile_ir(make_reuse_victim(),
                                            {.scheme = Scheme::kShadowStack});
  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  adv.break_at("vuln_1");
  adv.break_at("vuln_2");

  u64 ret_a = 0;
  auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* slot = innermost_slot(slots, layout, false)) {
      ret_a = slot->value;  // plain ret_A inside A's frame record
    }
  }

  stop = adv.resume();
  if (stop.reason == kernel::StopReason::kBreakpoint && ret_a != 0) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* victim = innermost_slot(slots, layout, false)) {
      adv.write(victim->addr, ret_a);  // main-stack copy
    }
    if (also_corrupt_shadow) {
      // The shadow stack lives at a known address (no ASLR for our
      // adversary): overwrite its top entry too.
      const auto shadow = adv.read_shadow_stack(task);
      if (!shadow.empty()) {
        const u64 top_addr = kernel::kShadowBase +
                             task.tid() * kernel::kShadowStride +
                             (shadow.size() - 1) * 8;
        adv.write(top_addr, ret_a);
      }
    }
  }

  run_ignoring_breakpoints(adv);
  return finish(process);
}

ScenarioResult run_signing_gadget_attack(bool fpac, u64 seed) {
  IrBuilder builder;
  const auto helper = builder.begin_function("helper");
  builder.compute(5);
  const auto fn_b = builder.begin_function("B");
  builder.call(helper);
  builder.write_int(kMarkB);
  const auto fn_t = builder.begin_function("T");
  builder.call(helper);
  builder.vuln_site(3);
  builder.tail_call(fn_b);  // Listing 8: T ends with `b B`
  const auto func = builder.begin_function("func");
  builder.call(fn_t);
  builder.write_int(kMarkA);
  const auto ir = builder.build(func);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  kernel::MachineOptions options;
  options.seed = seed;
  options.fpac = fpac;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  adv.break_at("vuln_3");
  const auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    // Inject an arbitrary (unsigned) pointer into T's stored-aret slot,
    // hoping the aut->pac sequence around the tail call will "launder" it
    // into a validly signed chain value.
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* victim = innermost_slot(slots, layout, true)) {
      adv.write(victim->addr, program.symbol("helper"));
    }
  }

  run_ignoring_breakpoints(adv);
  return finish(process);
}

ScenarioResult run_sigreturn_attack(bool defense, u64 seed) {
  return run_sigreturn_attack_against(
      defense ? SigreturnDefense::kAsigret : SigreturnDefense::kNone, seed);
}

ScenarioResult run_sigreturn_attack_against(SigreturnDefense defense,
                                            u64 seed) {
  IrBuilder builder;
  builder.begin_function("evil");  // the attacker's payload
  builder.write_int(kMarkEvil);
  const auto handler = builder.begin_function("handler");  // leaf: SP = frame
  builder.vuln_site(5);
  builder.write_int(0x51);
  const auto entry = builder.begin_function("entry");
  builder.sigaction(kernel::kSigUsr1, handler);
  builder.vuln_site(4);
  builder.compute(100);
  builder.write_int(99);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  kernel::MachineOptions options;
  options.seed = seed;
  options.sigreturn_defense = defense == SigreturnDefense::kAsigret ||
                              defense == SigreturnDefense::kAsigretAllRegs;
  options.sigreturn_bind_all_regs =
      defense == SigreturnDefense::kAsigretAllRegs;
  options.sigreturn_canary = defense == SigreturnDefense::kSignalCanary;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();

  adv.break_at("vuln_4");
  adv.break_at("vuln_5");

  auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    // The "kernel delivers a signal" part is legitimate; the attack is the
    // frame forgery below.
    process.pending_signals.push_back(kernel::kSigUsr1);
  }

  stop = adv.resume();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    // Inside the (leaf) handler: SP points at the signal frame. Rewrite the
    // saved PC so sigreturn "restores" execution into the payload.
    const u64 frame = task.cpu().reg(sim::Reg::kSp);
    adv.write(frame + kernel::SignalFrame::kPcOffset, program.symbol("evil"));
    // Give the payload a clean landing afterwards: restored LR = the
    // thread-exit stub, so the hijacked flow terminates quietly.
    const u64 lr_slot = frame + kernel::SignalFrame::kRegsOffset +
                        8 * static_cast<u64>(sim::kLr);
    adv.write(lr_slot, program.symbol("__thread_exit"));
  }

  run_ignoring_breakpoints(adv);
  return finish(process);
}

ScenarioResult run_partial_protection_attack(bool protect_library, u64 seed) {
  // entry -> G -> H gives the adversary a *consistent* (aret, predecessor)
  // pair: H's frame stores aret_G and G's frame stores aret_entry, and
  // verify(aret_G, aret_entry) holds by construction. Splicing aret_G into
  // the chain register spilled by the unprotected library function U makes
  // the protected caller F "return" to G's return site.
  IrBuilder builder;
  const auto helper = builder.begin_function("helper");
  builder.compute(5);
  const auto fn_h = builder.begin_function("H");
  builder.call(helper);
  builder.vuln_site(11);  // harvest point (depth 2)
  const auto fn_g = builder.begin_function("G");
  builder.call(fn_h);
  const auto fn_u = builder.begin_function("U");  // unprotected library fn
  builder.vuln_site(12);
  builder.compute(3);
  builder.mark_spills_cr();
  const auto fn_f = builder.begin_function("F");
  builder.call(fn_u);
  const auto entry = builder.begin_function("entry");
  builder.call(fn_g);
  builder.write_int(kMarkA);  // G's return site — the bend target
  builder.call(fn_f);
  builder.write_int(kMarkB);
  const auto ir = builder.build(entry);

  compiler::CompileOptions copts;
  copts.scheme = Scheme::kPacStack;
  if (!protect_library) copts.uninstrumented.push_back("U");
  const auto program = compiler::compile_ir(ir, copts);

  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  adv.break_at("vuln_11");
  adv.break_at("vuln_12");

  // Harvest the consistent pair inside H.
  u64 harvested_aret = 0;
  auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* slot = innermost_slot(slots, layout, true)) {
      harvested_aret = slot->value;  // aret_G (verifies against aret_entry)
    }
  }

  // Splice it into the innermost signed slot inside U: the spilled CR when
  // U is unprotected, U's (or F's) stored chain value when protected.
  stop = adv.resume();
  if (stop.reason == kernel::StopReason::kBreakpoint && harvested_aret != 0) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* victim = innermost_slot(slots, layout, true)) {
      adv.write(victim->addr, harvested_aret);
    }
  }

  run_ignoring_breakpoints(adv);
  return finish(process);
}

ScenarioResult run_unwind_corruption_attack(Scheme scheme, u64 seed) {
  // entry(catch 1) -> mid -> thrower(throw 1). The adversary corrupts
  // mid's stored return link (frame-record LR / stored aret, by scheme) to
  // point at `evil`, which advertises a handler for tag 1. A trusting
  // unwinder lands there; evil's pad then "returns" through the stale LR
  // into mid's body, executing the normally-skipped code (the 0xE71
  // marker). ACS-validated unwinding refuses the forged link.
  IrBuilder builder;
  const auto thrower = builder.begin_function("thrower");
  builder.throw_exception(1, 5);
  builder.begin_function("evil");
  builder.catch_point(1);  // attacker-chosen landing site
  builder.compute(1);
  const auto mid = builder.begin_function("mid");
  builder.write_int(kMarkA);
  builder.vuln_site(41);
  builder.call(thrower);
  builder.write_int(kMarkEvil);  // skipped unless the unwind was hijacked
  const auto entry = builder.begin_function("entry");
  builder.catch_point(1);
  builder.write_int(kMarkB);
  builder.call(mid);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = scheme});
  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  const bool prefer_signed = scheme == Scheme::kPacStack ||
                             scheme == Scheme::kPacStackNoMask;

  adv.break_at("vuln_41");
  const auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* victim = innermost_slot(slots, layout, prefer_signed)) {
      adv.write(victim->addr, program.symbol("evil"));
    }
  }
  // A hijacked unwind can leave the victim spinning in attacker-controlled
  // code: bound the post-attack run tightly.
  for (int i = 0; i < 4; ++i) {
    if (adv.resume(2'000'000).reason != kernel::StopReason::kBreakpoint) break;
  }
  return finish(process);
}

ConditionResult run_masked_token_condition_cpu(unsigned b, u64 trials,
                                               u64 seed) {
  // entry -> A -> C -> loader -> inner   (path A)
  // entry -> B -> C -> loader -> inner   (path B)
  // inner's frame stores the loader's chain value = the masked token.
  IrBuilder builder;
  const auto leaf = builder.begin_function("leaf");
  builder.compute(2);
  const auto inner = builder.begin_function("inner");
  builder.call(leaf);
  builder.vuln_site(34);  // harvest point: masked token + predecessor
  const auto loader = builder.begin_function("loader");
  builder.call(inner);
  builder.vuln_site(33);  // substitution point (loader's frame still live)
  const auto fn_c = builder.begin_function("C");
  builder.call(loader);
  builder.write_int(77);  // reached only if the loader's return verified
  const auto fn_a = builder.begin_function("A");
  builder.call(fn_c);
  const auto fn_b = builder.begin_function("B");
  builder.call(fn_c);
  const auto entry = builder.begin_function("entry");
  builder.call(fn_a);
  builder.call(fn_b);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  const u64 vuln_33 = program.symbol("vuln_33");
  const u64 vuln_34 = program.symbol("vuln_34");

  ConditionResult result;
  Rng rng(seed);
  for (u64 t = 0; t < trials; ++t) {
    kernel::MachineOptions options;
    options.seed = rng.next();
    options.layout = pa::VaLayout{55U - b};
    kernel::Machine machine(program, options);
    Adversary adv(machine, machine.init_process().pid());
    auto& process = machine.init_process();
    auto& task = *process.tasks.front();
    const auto& layout = process.pauth().layout();

    adv.break_at("vuln_33");
    adv.break_at("vuln_34");

    // Path A harvest, then path B harvest + substitution.
    u64 token_a = 0, prev_a = 0, token_b = 0;
    unsigned loader_hits = 0;
    (void)layout;
    auto stop = adv.run_until_break();
    for (int round = 0; round < 8; ++round) {
      if (stop.reason != kernel::StopReason::kBreakpoint) break;
      const u64 pc = task.cpu().pc();
      const u64 sp = task.cpu().reg(sim::Reg::kSp);
      if (pc == vuln_34) {
        // Frame geometry of this fixed victim: inner's stored chain value
        // (the masked token) sits at [SP], the loader's stored predecessor
        // at [SP+32] (one 32-byte PACStack frame further out).
        const auto token = adv.read(sp);
        const auto prev = adv.read(sp + 32);
        if (token && prev) {
          if (token_a == 0) {
            token_a = *token;
            prev_a = *prev;
          } else if (token_b == 0) {
            token_b = *token;
          }
        }
      } else if (pc == vuln_33) {
        ++loader_hits;
        if (loader_hits == 2 && prev_a != 0) {
          // Path B live: the loader's stored predecessor is at [SP];
          // substitute path A's value.
          adv.write(sp, prev_a);
        }
      }
      stop = adv.resume();
    }
    run_ignoring_breakpoints(adv);

    const auto hits = std::count(process.output.begin(), process.output.end(),
                                 u64{77});
    const bool success = hits >= 2;
    const bool tokens_equal = token_a != 0 && token_a == token_b;
    result.successes += success ? 1 : 0;
    if (success != tokens_equal) ++result.condition_mismatches;
  }
  result.trials = trials;
  return result;
}

DeepHarvestE2E run_deep_harvest_e2e(unsigned b, unsigned paths, u64 machines,
                                    u64 seed) {
  // entry -> P_k -> C -> loader -> inner, for k in [0, paths). The frames
  // below vuln_61 (inside inner) are, innermost first:
  //   [SP+ 0] inner's stored link  = CR_loader  (the masked token)
  //   [SP+32] loader's stored link = aret_C (C's authenticated ret, path k)
  //   [SP+64] C's stored link      = aret_P (P_k's authenticated ret)
  // and at vuln_62 (inside loader, after inner returned):
  //   [SP+ 0] loader's stored link,  [SP+32] C's stored link.
  IrBuilder builder;
  const auto leaf = builder.begin_function("leaf");
  builder.compute(2);
  const auto inner = builder.begin_function("inner");
  builder.call(leaf);
  builder.vuln_site(61);
  const auto loader = builder.begin_function("loader");
  builder.call(inner);
  builder.vuln_site(62);
  const auto fn_c = builder.begin_function("C");
  builder.call(loader);
  std::vector<std::size_t> path_fns;
  for (unsigned k = 0; k < paths; ++k) {
    const auto pk =
        builder.begin_function(std::string{"P"}.append(std::to_string(k)));
    builder.call(fn_c);
    builder.write_int(0x100 + k);  // duplicated iff the bend lands here
    path_fns.push_back(pk);
  }
  const auto entry = builder.begin_function("entry");
  for (const auto pk : path_fns) builder.call(pk);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  const u64 vuln_61 = program.symbol("vuln_61");
  const u64 vuln_62 = program.symbol("vuln_62");

  DeepHarvestE2E result;
  Rng rng(seed);
  for (u64 m = 0; m < machines; ++m) {
    kernel::MachineOptions options;
    options.seed = rng.next();
    options.layout = pa::VaLayout{55U - b};
    kernel::Machine machine(program, options);
    Adversary adv(machine, machine.init_process().pid());
    auto& process = machine.init_process();
    auto& task = *process.tasks.front();

    adv.break_at("vuln_61");
    adv.break_at("vuln_62");

    struct PathObs {
      u64 token = 0;   // masked token (CR_loader) spilled one level deep
      u64 aret_c = 0;  // loader's stored link
      u64 aret_p = 0;  // C's stored link
    };
    std::vector<PathObs> observed;
    bool spliced = false;
    bool collided = false;

    auto stop = adv.run_until_break();
    for (unsigned round = 0; round < 2 * paths + 4; ++round) {
      if (stop.reason != kernel::StopReason::kBreakpoint) break;
      const u64 pc = task.cpu().pc();
      const u64 sp = task.cpu().reg(sim::Reg::kSp);
      if (pc == vuln_61) {
        PathObs obs;
        obs.token = adv.read(sp).value_or(0);
        obs.aret_c = adv.read(sp + 32).value_or(0);
        obs.aret_p = adv.read(sp + 64).value_or(0);
        observed.push_back(obs);
      } else if (pc == vuln_62 && !spliced && !observed.empty()) {
        // Current path = observed.back(); look for an earlier path whose
        // *visible* masked token matches.
        const auto& current = observed.back();
        for (std::size_t i = 0; i + 1 < observed.size(); ++i) {
          if (observed[i].token == current.token &&
              observed[i].aret_c != current.aret_c) {
            collided = true;
            // Splice path i's suffix under the live loader frame.
            adv.write(sp, observed[i].aret_c);
            adv.write(sp + 32, observed[i].aret_p);
            spliced = true;
            break;
          }
        }
      }
      stop = adv.resume();
    }
    for (int i = 0; i < static_cast<int>(paths) + 4; ++i) {
      if (adv.resume(5'000'000).reason != kernel::StopReason::kBreakpoint) {
        break;
      }
    }

    // Hijack detection: any per-path marker written twice.
    bool hijacked = false;
    for (unsigned k = 0; k < paths && !hijacked; ++k) {
      hijacked = std::count(process.output.begin(), process.output.end(),
                            u64{0x100 + k}) > 1;
    }
    ++result.machines;
    result.collisions += collided ? 1 : 0;
    result.hijacks += hijacked ? 1 : 0;
  }
  return result;
}

MonteCarloResult run_offgraph_arbitrary_cpu(unsigned b, u64 trials, u64 seed) {
  // entry -> func -> B(vuln). The adversary fabricates BOTH links below
  // B's live frame: B's stored link (AG-Load gate at B's return) and
  // func's stored link (AG-Jump gate at func's return, whose "return
  // address" is the attacker's payload).
  IrBuilder builder;
  const auto helper = builder.begin_function("helper");
  builder.compute(2);
  builder.begin_function("evil");
  builder.write_int(kMarkEvil);
  builder.compute(1);
  const auto fn_b = builder.begin_function("B", /*local_bytes=*/32);
  builder.call(helper);
  builder.vuln_site(71);
  const auto func = builder.begin_function("func");
  builder.call(fn_b);
  builder.write_int(kMarkB);
  const auto entry = builder.begin_function("entry");
  builder.call(func);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  MonteCarloResult result;
  Rng rng(seed);
  for (u64 t = 0; t < trials; ++t) {
    kernel::MachineOptions options;
    options.seed = rng.next();
    options.layout = pa::VaLayout{55U - b};
    kernel::Machine machine(program, options);
    Adversary adv(machine, machine.init_process().pid());
    auto& process = machine.init_process();
    auto& task = *process.tasks.front();
    const auto& layout = process.pauth().layout();

    adv.break_at("vuln_71");
    const auto stop = adv.run_until_break();
    if (stop.reason == kernel::StopReason::kBreakpoint) {
      const u64 sp = task.cpu().reg(sim::Reg::kSp);
      const u64 pac_space = u64{1} << layout.pac_bits();
      // B's frame: 32B of locals then the 32B prologue area: B's stored
      // link is at [SP+32], func's at [SP+64].
      const u64 fake_b = layout.with_pac(program.symbol("evil"),
                                         1 + rng.next_below(pac_space - 1));
      const u64 fake_prev = rng.next();
      adv.write(sp + 32, fake_b);
      adv.write(sp + 64, fake_prev);
    }
    for (int i = 0; i < 4; ++i) {
      if (adv.resume(2'000'000).reason != kernel::StopReason::kBreakpoint) {
        break;
      }
    }
    // Full success: the payload ran (both gates passed).
    if (std::count(process.output.begin(), process.output.end(),
                   u64{kMarkEvil}) > 0) {
      ++result.successes;
    }
  }
  result.trials = trials;
  return result;
}

ReuseSurface measure_reuse_surface(compiler::Scheme scheme, u64 graphs,
                                   u64 seed) {
  ReuseSurface surface;
  Rng rng(seed);
  for (u64 g = 0; g < graphs; ++g) {
    workload::CallGraphParams params;
    params.num_functions = 10 + rng.next_below(8);
    params.call_probability = 0.6;
    const auto ir = workload::make_random_ir(rng, params);
    const auto program = compiler::compile_ir(ir, {.scheme = scheme});

    kernel::MachineOptions options;
    options.seed = rng.next();
    kernel::Machine machine(program, options);
    Adversary adv(machine, machine.init_process().pid());
    auto& task = *machine.init_process().tasks.front();

    // Break on every function entry and record each signing event.
    for (const auto& fn : ir.functions) adv.break_at(fn.name);

    // What matters is the *attack precondition*. Under pac-ret the spilled
    // signed LR is interchangeable whenever two different return addresses
    // share the SP modifier — an exact, directly exploitable event. Under
    // PACStack the analogous precondition is a collision of the b-bit
    // authentication tags of two different paths' aret values (an upper
    // bound on exploitability: the full substitution additionally needs a
    // matching context), expected at the 2^-b rate.
    const core::AcsChain chain{machine.init_process().pauth(),
                               scheme == compiler::Scheme::kPacStack};
    const auto& layout = machine.init_process().pauth().layout();
    std::vector<std::pair<u64, u64>> events;  // (precondition value, ret)
    auto stop = adv.run_until_break();
    for (int i = 0; i < 2000; ++i) {
      if (stop.reason != kernel::StopReason::kBreakpoint) break;
      const u64 pc = task.cpu().pc();
      const auto* info = program.unwind_for(pc);
      // Only functions that actually sign their return address count.
      if (info != nullptr && info->kind != sim::UnwindKind::kNoFrame) {
        const u64 ret = task.cpu().reg(sim::kLr);
        const u64 comparable =
            scheme == compiler::Scheme::kPacRet
                ? task.cpu().reg(sim::Reg::kSp)  // the SP modifier
                : layout.pac_field(
                      chain.compute_aret(ret, task.cpu().reg(sim::kCr)));
        events.emplace_back(comparable, ret);
      }
      stop = adv.resume();
    }

    u64 pairs = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[i].first == events[j].first &&
            events[i].second != events[j].second) {
          ++pairs;
        }
      }
    }
    ++surface.graphs;
    surface.activations += events.size();
    surface.interchangeable_pairs += pairs;
    surface.graphs_with_pair += pairs > 0 ? 1 : 0;
  }
  return surface;
}

ScenarioResult run_replay_bending_attack(u64 seed) {
  // entry calls M twice; the adversary records M's stored chain value on
  // the first activation and "replays" it on the second. The chain is a
  // deterministic function of the path, so the replayed value is the one
  // already there — there is no outdated-but-valid aret_n to swap in
  // (Section 6.3: aret_n never leaves CR).
  IrBuilder builder;
  const auto helper = builder.begin_function("helper");
  builder.compute(5);
  const auto fn_m = builder.begin_function("M");
  builder.call(helper);
  builder.vuln_site(21);
  const auto entry = builder.begin_function("entry");
  builder.call(fn_m);
  builder.write_int(kMarkA);
  builder.call(fn_m);
  builder.write_int(kMarkB);
  const auto ir = builder.build(entry);

  const auto program = compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(program, options);
  Adversary adv(machine, machine.init_process().pid());
  auto& process = machine.init_process();
  auto& task = *process.tasks.front();
  const auto& layout = process.pauth().layout();

  adv.break_at("vuln_21");
  u64 recorded = 0;
  auto stop = adv.run_until_break();
  if (stop.reason == kernel::StopReason::kBreakpoint) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* slot = innermost_slot(slots, layout, true)) {
      recorded = slot->value;
    }
  }
  stop = adv.resume();
  bool replay_identical = false;
  if (stop.reason == kernel::StopReason::kBreakpoint && recorded != 0) {
    const auto slots = find_return_slots(adv, task, process);
    if (const auto* victim = innermost_slot(slots, layout, true)) {
      replay_identical = victim->value == recorded;
      adv.write(victim->addr, recorded);  // the "replay"
    }
  }
  run_ignoring_breakpoints(adv);
  auto result = finish(process);
  if (result.outcome == AttackOutcome::kBenign && replay_identical) {
    result.detail = "replayed value was already in place (deterministic chain)";
  }
  return result;
}

MonteCarloResult run_offgraph_guess_cpu(unsigned b, u64 trials, u64 seed) {
  const auto program =
      compiler::compile_ir(make_reuse_victim(), {.scheme = Scheme::kPacStack});
  MonteCarloResult result;
  Rng rng(seed);
  for (u64 t = 0; t < trials; ++t) {
    kernel::MachineOptions options;
    options.seed = rng.next();  // fresh keys per victim process
    options.layout = pa::VaLayout{55U - b};
    kernel::Machine machine(program, options);
    Adversary adv(machine, machine.init_process().pid());
    auto& process = machine.init_process();
    auto& task = *process.tasks.front();
    const auto& layout = process.pauth().layout();

    adv.break_at("vuln_2");
    const auto stop = adv.run_until_break();
    if (stop.reason == kernel::StopReason::kBreakpoint) {
      // The innermost code-pointer-looking word is B's stored aret (it sits
      // below the frame record); target it regardless of whether its masked
      // tag happens to be zero.
      const auto slots = find_return_slots(adv, task, process);
      if (const auto* victim = innermost_slot(slots, layout, false)) {
        // Fabricate aret_B: attacker-chosen address, guessed auth token.
        const u64 fake = layout.with_pac(
            program.symbol("helper"),
            1 + rng.next_below(bit_mask(layout.pac_bits())));
        adv.write(victim->addr, fake);
      }
    }
    run_ignoring_breakpoints(adv);
    // AG-Load succeeded iff B's return verified against the fabricated
    // value — execution then reaches the write of kMarkB.
    if (std::count(process.output.begin(), process.output.end(), kMarkB) > 0) {
      ++result.successes;
    }
  }
  result.trials = trials;
  return result;
}

}  // namespace acs::attack
