#include "fuzz/oracle.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "compiler/codegen.h"
#include "compiler/interp.h"
#include "inject/engine.h"
#include "inject/plan.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/fault.h"
#include "verify/cfg.h"

namespace acs::fuzz {
namespace {

using compiler::OpKind;
using compiler::ProgramIr;
using compiler::Scheme;

[[nodiscard]] u16 log2_bucket(u64 v) noexcept {
  u16 b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

[[nodiscard]] u8 scheme_tag(Scheme scheme) noexcept {
  return static_cast<u8>(1 + static_cast<u8>(scheme));
}

[[nodiscard]] bool has_op(const ProgramIr& ir, OpKind kind) {
  for (const auto& fn : ir.functions) {
    for (const auto& op : fn.body) {
      if (op.kind == kind) return true;
    }
  }
  return false;
}

/// Structural-property values for FeatureDomain::kIrShape.
enum IrShapeValue : u16 {
  kShapeHasTailCall = 1,
  kShapeSpillsCr = 2,
  kShapeHasLeaf = 3,
  kShapeHasLocals = 4,
  kShapeHasWildAccess = 5,  ///< absolute access near the top of the space
  kShapeFnCountBase = 0x10,  ///< + log2 bucket of the function count
  kShapeOpCountBase = 0x20,  ///< + log2 bucket of the total op count
};

void add_ir_features(const ProgramIr& ir, FeatureMap& features) {
  std::size_t total_ops = 0;
  for (const auto& fn : ir.functions) {
    total_ops += fn.body.size();
    for (const auto& op : fn.body) {
      features.add(make_feature(FeatureDomain::kIrOp, 0,
                                static_cast<u16>(op.kind)));
      if (compiler::is_wild_access(op)) {
        features.add(
            make_feature(FeatureDomain::kIrShape, 0, kShapeHasWildAccess));
      }
    }
    if (fn.tail_callee >= 0) {
      features.add(make_feature(FeatureDomain::kIrShape, 0, kShapeHasTailCall));
    }
    if (fn.spills_cr) {
      features.add(make_feature(FeatureDomain::kIrShape, 0, kShapeSpillsCr));
    }
    if (fn.is_leaf()) {
      features.add(make_feature(FeatureDomain::kIrShape, 0, kShapeHasLeaf));
    }
    if (fn.local_bytes > 0) {
      features.add(make_feature(FeatureDomain::kIrShape, 0, kShapeHasLocals));
    }
  }
  features.add(make_feature(
      FeatureDomain::kIrShape, 0,
      kShapeFnCountBase + log2_bucket(ir.functions.size())));
  features.add(make_feature(FeatureDomain::kIrShape, 0,
                            kShapeOpCountBase + log2_bucket(total_ops)));
}

/// Per-scheme instrumentation decisions: for each function, the combo of
/// (instrumented, canary, tail, leaf) the lowering chose.
void add_lowering_features(const ProgramIr& ir, Scheme scheme,
                           FeatureMap& features) {
  const auto lowering = compiler::make_scheme(scheme);
  for (const auto& fn : ir.functions) {
    u16 combo = 0;
    if (lowering->instruments(fn)) combo |= 1;
    if (lowering->wants_canary(fn)) combo |= 2;
    if (fn.tail_callee >= 0) combo |= 4;
    if (fn.is_leaf()) combo |= 8;
    features.add(
        make_feature(FeatureDomain::kLowering, scheme_tag(scheme), combo));
  }
}

/// Per-function CFG shape combos from the static verifier's reconstruction.
enum CfgValue : u16 {
  kCfgSignalHandlers = 0x100,
};

void add_cfg_features(const sim::Program& program, FeatureMap& features) {
  const verify::ProgramCfg cfg = verify::build_cfg(program);
  for (const auto& fn : cfg.functions) {
    u16 combo = 0;
    if (fn.has_indirect_call) combo |= 1;
    if (!fn.tail_callees.empty()) combo |= 2;
    if (!fn.setjmp_continuations.empty()) combo |= 4;
    if (!fn.catch_pads.empty()) combo |= 8;
    if (!fn.address_taken.empty()) combo |= 16;
    if (fn.calls_longjmp) combo |= 32;
    features.add(make_feature(FeatureDomain::kCfg, 0, combo));
  }
  if (!cfg.signal_handlers.empty()) {
    features.add(make_feature(FeatureDomain::kCfg, 0, kCfgSignalHandlers));
  }
}

void add_metrics_features(const obs::Metrics& metrics, Scheme scheme,
                          FeatureMap& features) {
  for (const auto& [name, value] : metrics.counters()) {
    if (value == 0) continue;
    const u16 id = static_cast<u16>(feature_hash(name.c_str()) ^
                                    log2_bucket(value));
    features.add(make_feature(FeatureDomain::kRuntime, scheme_tag(scheme), id));
  }
  const auto depth_features = [&](const char* hist_name, u16 base) {
    const auto it = metrics.histograms().find(hist_name);
    if (it == metrics.histograms().end()) return;
    const auto& counts = it->second.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) {
        features.add(make_feature(FeatureDomain::kDepth, scheme_tag(scheme),
                                  static_cast<u16>(base + i)));
      }
    }
  };
  depth_features("sim.call.depth", 0);
  depth_features("chain.depth", 0x40);
}

/// FeatureDomain::kFault value layout.
enum FaultValue : u16 {
  kFaultDeliveredBase = 0x00,   ///< + inject::FaultKind index
  kFaultKilledBase = 0x20,      ///< + sim::FaultKind of the kill
  kFaultSurvivedInjection = 0x40,
};

/// One machine execution of an already-compiled program.
struct RunOutcome {
  kernel::ProcessState state = kernel::ProcessState::kLive;
  std::vector<u64> output;
  sim::FaultKind kill = sim::FaultKind::kNone;
  std::string kill_reason;
  bool budget_blown = false;
  obs::Metrics metrics;
};

/// Every oracle execution forks a pristine master machine copy-on-write:
/// compile → build master once per scheme, then fork per run. A fork of an
/// unrun master is bit-identical to a machine freshly constructed from the
/// program, so oracle verdicts are unchanged — only the per-run map/init
/// cost disappears.
RunOutcome run_machine(const kernel::Machine& master, u64 budget,
                       inject::Engine* injector, obs::Recorder* recorder) {
  kernel::MachineOptions options;
  options.recorder = recorder;
  options.injector = injector;
  kernel::Machine machine(master, options);
  const kernel::Stop stop = machine.run(budget);
  RunOutcome outcome;
  outcome.budget_blown = stop.reason == kernel::StopReason::kMaxInstructions;
  auto& process = machine.init_process();
  outcome.state = process.state;
  outcome.output = process.output;
  outcome.kill = process.kill_fault.kind;
  outcome.kill_reason = process.kill_reason;
  if (recorder != nullptr) outcome.metrics = recorder->metrics();
  return outcome;
}

std::string render_output(const std::vector<u64>& output) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (i > 0) out << " ";
    out << output[i];
  }
  out << "]";
  return out.str();
}

/// Canonical outcome string for cross-scheme comparison. Threaded programs
/// compare by outcome kind only: unjoined threads run for however many
/// cycles the main thread happens to take before exiting, and schemes have
/// different instruction counts — identical scheduling progress across
/// schemes is NOT a pipeline invariant (the confirm suite's `threads`
/// program relies on exactly this slack).
std::string outcome_key(const RunOutcome& outcome, bool threaded) {
  if (outcome.state == kernel::ProcessState::kKilled) {
    return "killed:" + sim::fault_name(outcome.kill);
  }
  if (threaded) return "exited";
  return "exited:" + render_output(outcome.output);
}

/// Multiset containment over sorted vectors: every element of `sub` occurs
/// in `super` at least as often.
[[nodiscard]] bool is_submultiset(const std::vector<u64>& sub,
                                  const std::vector<u64>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace

const char* oracle_name(OracleKind kind) noexcept {
  switch (kind) {
    case OracleKind::kGoldenDiff: return "golden-diff";
    case OracleKind::kCrossSchemeDiff: return "cross-scheme-diff";
    case OracleKind::kLint: return "lint";
    case OracleKind::kFaultSurvival: return "fault-survival";
  }
  return "unknown";
}

std::vector<verify::Code> expected_lint_codes(Scheme scheme) {
  using verify::Code;
  switch (scheme) {
    case Scheme::kNone:
    case Scheme::kCanary:
      return {Code::kRawRetReuse};
    case Scheme::kPacRet:
    case Scheme::kPacRetLeaf:
      return {Code::kSignedRetSpill};
    case Scheme::kPacStackNoMask:
      return {Code::kUnmaskedAretSpill};
    case Scheme::kPacStack:
    case Scheme::kShadowStack:
      return {};
  }
  return {};
}

EvalResult evaluate_program(const ProgramIr& ir, const OracleConfig& config) {
  EvalResult result;
  const std::vector<Scheme>& schemes =
      config.schemes.empty() ? compiler::all_schemes() : config.schemes;

  const auto golden = compiler::interpret(ir, config.golden_max_ops);
  if (golden.supported && !golden.completed) {
    return result;  // generator blow-up; nothing to compare
  }
  result.golden_supported = golden.supported;

  const bool order_insensitive = has_op(ir, OpKind::kThreadCreate);
  std::vector<u64> golden_output = golden.output;
  if (order_insensitive) {
    std::sort(golden_output.begin(), golden_output.end());
  }

  add_ir_features(ir, result.features);

  bool cfg_features_done = false;
  std::string first_key;
  Scheme first_scheme = Scheme::kNone;
  std::vector<std::pair<Scheme, RunOutcome>> baselines;
  // One pristine master machine per scheme: the baseline run below and any
  // fault-oracle re-execution fork it CoW instead of rebuilding (and
  // recompiling, in the fault oracle's case) from scratch.
  std::vector<std::pair<Scheme, std::unique_ptr<kernel::Machine>>> masters;
  for (const Scheme scheme : schemes) {
    add_lowering_features(ir, scheme, result.features);
    const auto program = compiler::compile_ir(
        ir, {.scheme = scheme, .uninstrumented = config.uninstrumented});

    if (config.run_lint_oracle) {
      const verify::Report report = verify::verify_program(program, scheme);
      const auto expected = expected_lint_codes(scheme);
      for (const verify::Code code : report.codes()) {
        if (std::find(expected.begin(), expected.end(), code) ==
            expected.end()) {
          result.findings.push_back(
              {OracleKind::kLint, scheme,
               "unexpected " + verify::code_name(code) + " under " +
                   compiler::scheme_name(scheme)});
        }
      }
    }

    // The CFG shape is scheme-coloured but the interesting edges (tail,
    // setjmp continuation, catch pad, indirect) exist under every scheme;
    // analysing one compiled image bounds the cost.
    if (!cfg_features_done) {
      add_cfg_features(program, result.features);
      cfg_features_done = true;
    }

    masters.emplace_back(scheme, std::make_unique<kernel::Machine>(
                                     program, kernel::MachineOptions{}));
    obs::Recorder recorder;
    RunOutcome outcome = run_machine(*masters.back().second,
                                     config.machine_budget, nullptr, &recorder);
    ++result.executions;
    if (outcome.budget_blown ||
        outcome.state == kernel::ProcessState::kLive) {
      return EvalResult{};  // discard: hang or deadlock, not comparable
    }
    add_metrics_features(outcome.metrics, scheme, result.features);
    if (outcome.state == kernel::ProcessState::kKilled) {
      result.features.add(make_feature(
          FeatureDomain::kFault, scheme_tag(scheme),
          kFaultKilledBase + static_cast<u16>(outcome.kill)));
    }

    const std::string key = outcome_key(outcome, order_insensitive);
    if (golden.supported) {
      std::vector<u64> output = outcome.output;
      if (order_insensitive) std::sort(output.begin(), output.end());
      // Threaded programs: the main thread's output is always complete but
      // unjoined workers only get whatever cycles remain before the process
      // exits, so the machine may observe a truncation of the golden
      // (run-to-completion) output — require multiset containment instead
      // of equality. Thread-free programs compare exactly.
      const bool diverged =
          order_insensitive ? !is_submultiset(output, golden_output)
                            : output != golden_output;
      if (outcome.state != kernel::ProcessState::kExited) {
        result.findings.push_back(
            {OracleKind::kGoldenDiff, scheme,
             "killed (" + outcome.kill_reason + ") but golden model exits " +
                 render_output(golden_output)});
      } else if (diverged) {
        result.findings.push_back(
            {OracleKind::kGoldenDiff, scheme,
             "output " + render_output(output) +
                 (order_insensitive ? " not contained in golden "
                                    : " != golden ") +
                 render_output(golden_output)});
      }
    }
    if (first_key.empty()) {
      first_key = key;
      first_scheme = scheme;
    } else if (key != first_key) {
      result.findings.push_back(
          {OracleKind::kCrossSchemeDiff, scheme,
           compiler::scheme_name(scheme) + " " + key + " != " +
               compiler::scheme_name(first_scheme) + " " + first_key});
    }
    baselines.emplace_back(scheme, std::move(outcome));
  }

  // Fault survival: only sound on programs whose stack frames hold nothing
  // but frame records — no locals and no repeat-counted calls (the codegen
  // lowers those to memory-resident loop counters). A flipped data slot
  // silently corrupts output under any scheme (see oracle.h). Threads are
  // excluded too: unjoined-thread progress makes outputs
  // schedule-dependent.
  bool data_free = true;
  for (const auto& fn : ir.functions) {
    if (fn.local_bytes > 0) data_free = false;
    for (const auto& op : fn.body) {
      if (op.kind == OpKind::kCall && op.b > 1) data_free = false;
    }
  }
  if (config.run_fault_oracle && data_free && !order_insensitive) {
    for (const Scheme scheme : config.fault_schemes) {
      const RunOutcome* baseline = nullptr;
      const kernel::Machine* master = nullptr;
      for (std::size_t i = 0; i < baselines.size(); ++i) {
        if (baselines[i].first == scheme) {
          baseline = &baselines[i].second;
          master = masters[i].second.get();
        }
      }
      if (baseline == nullptr ||
          baseline->state != kernel::ProcessState::kExited) {
        continue;  // program already dies without injection
      }
      inject::PlanConfig plan_config;
      plan_config.seed = config.fault_seed;
      plan_config.horizon = config.machine_budget;
      plan_config.mean_interval = config.fault_mean_interval;
      plan_config.kinds = {inject::FaultKind::kRetSlotBitflip};
      inject::Engine engine({.draw = std::move(plan_config)});
      // Re-fork the scheme's pristine master (same image the baseline ran
      // from) rather than recompiling the program for the injected run.
      const RunOutcome outcome =
          run_machine(*master, config.machine_budget, &engine, nullptr);
      ++result.executions;
      if (outcome.budget_blown) continue;
      for (std::size_t i = 0; i < inject::kNumFaultKinds; ++i) {
        if (engine.summary().injected[i] > 0) {
          result.features.add(make_feature(
              FeatureDomain::kFault, scheme_tag(scheme),
              kFaultDeliveredBase + static_cast<u16>(i)));
        }
      }
      if (outcome.state == kernel::ProcessState::kKilled) {
        result.features.add(make_feature(
            FeatureDomain::kFault, scheme_tag(scheme),
            kFaultKilledBase + static_cast<u16>(outcome.kill)));
        continue;  // detection — the scheme did its job
      }
      const std::vector<u64>& injected_output = outcome.output;
      const std::vector<u64>& baseline_output = baseline->output;
      if (injected_output != baseline_output) {
        result.findings.push_back(
            {OracleKind::kFaultSurvival, scheme,
             "silent corruption: " + render_output(injected_output) +
                 " != baseline " + render_output(baseline_output) + " after " +
                 std::to_string(engine.summary().total_injected()) +
                 " injected fault(s)"});
      } else {
        result.features.add(make_feature(FeatureDomain::kFault,
                                         scheme_tag(scheme),
                                         kFaultSurvivedInjection));
      }
    }
  }

  result.viable = true;
  return result;
}

FeatureMap ir_features(const ProgramIr& ir) {
  FeatureMap features;
  add_ir_features(ir, features);
  return features;
}

bool maps_to_static(const ProgramIr& ir, const Finding& finding) {
  switch (finding.oracle) {
    case OracleKind::kLint:
      return true;
    case OracleKind::kGoldenDiff:
    case OracleKind::kCrossSchemeDiff:
      return true;  // semantics findings, outside the audit's scope
    case OracleKind::kFaultSurvival: {
      const auto program =
          compiler::compile_ir(ir, {.scheme = finding.scheme});
      const verify::Report report =
          verify::verify_program(program, finding.scheme);
      const auto expected = expected_lint_codes(finding.scheme);
      for (const verify::Code code : report.codes()) {
        if (std::find(expected.begin(), expected.end(), code) ==
            expected.end()) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace acs::fuzz
