// Observability overhead pin (google-benchmark): the src/obs hooks must be
// near-zero-cost when disabled — every hook site is a single predictable
// `obs_ != nullptr` branch — and cheap enough when enabled that tracing a
// full Table 3 run stays practical.
//
// Three recorder modes over the same call-dense simulated workload:
//   disabled  no recorder attached (the default for every bench)
//   metrics   counters + histograms only
//   full      counters + trace ring + folded profile
// crossed with both instruction-dispatch paths (decoded = Cpu::run_fast
// predecoded stream, interp = re-decode-per-step reference loop) — the
// disabled-hook budget must hold under the fast path too, where a mispredicted
// branch would be proportionally far more expensive.
//
// The JSON trajectory carries instr/s for each mode; CI gates on the
// `disabled` numbers (both dispatch paths) staying within noise of the
// historical baseline, which pins the <1% disabled-hook overhead budget
// from the PR acceptance criteria (the enabled modes are informational).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "compiler/codegen.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "workload/spec_suite.h"

namespace {

using namespace acs;

enum ObsMode : int { kDisabled = 0, kMetricsOnly = 1, kFull = 2 };

const sim::Program& call_loop_program() {
  static const sim::Program program = [] {
    auto bench = workload::spec_suite().front();
    bench.iterations = 200;
    return compiler::compile_ir(workload::make_spec_ir(bench),
                                {.scheme = compiler::Scheme::kPacStack});
  }();
  return program;
}

void BM_SimLoopObs(benchmark::State& state) {
  const auto mode = static_cast<ObsMode>(state.range(0));
  const auto dispatch = state.range(1) == 0 ? sim::DispatchMode::kDecoded
                                            : sim::DispatchMode::kInterpreter;
  const auto& program = call_loop_program();
  u64 instructions = 0;
  for (auto _ : state) {
    kernel::MachineOptions options;
    options.dispatch = dispatch;
    std::optional<obs::Recorder> recorder;
    if (mode != kDisabled) {
      obs::RecorderConfig rc;
      rc.metrics = true;
      rc.trace = mode == kFull;
      rc.profile = mode == kFull;
      rc.sim_hz = sim::kSimulatedHz;
      recorder.emplace(rc);
      options.recorder = &*recorder;
    }
    kernel::Machine machine(program, options);
    machine.run();
    instructions += machine.init_process().instructions();
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimLoopObs)
    ->ArgsProduct({{kDisabled, kMetricsOnly, kFull}, {0, 1}})
    ->ArgNames({"mode", "dispatch"});

/// Forward per-iteration runs (including the instr/s rate counters) to the
/// harness JSON sink; console output stays untouched.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(acs::bench::BenchReporter& sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      sink_.record(run.benchmark_name(), run.GetAdjustedRealTime(),
                   benchmark::GetTimeUnitString(run.time_unit),
                   static_cast<u64>(run.iterations));
      const auto rate = run.counters.find("instr/s");
      // A kIsRate counter is already per second by the time it is reported.
      if (rate != run.counters.end()) {
        sink_.record(run.benchmark_name() + "_instr_per_sec",
                     rate->second.value, "instr/s",
                     static_cast<u64>(run.iterations));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  acs::bench::BenchReporter& sink_;
};

}  // namespace

int main(int argc, char** argv) {
  // Split our uniform harness flags from google-benchmark's own
  // (--benchmark_*) flags; each parser sees only its share.
  std::vector<char*> harness_args = {argv[0]};
  std::vector<char*> bm_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    (std::strncmp(argv[i], "--benchmark", 11) == 0 ? bm_args : harness_args)
        .push_back(argv[i]);
  }
  int harness_argc = static_cast<int>(harness_args.size());
  const auto options = acs::bench::parse_bench_args(
      harness_argc, harness_args.data(), "bench_obs_overhead",
      "  --benchmark_*  passed through to google-benchmark\n");
  acs::bench::BenchReporter reporter("bench_obs_overhead", options, 0);

  // Smoke mode shortens each measurement; all three modes still run so the
  // disabled/enabled comparison is always present in the JSON.
  std::string smoke_time = "--benchmark_min_time=0.05";
  const bool user_time =
      std::any_of(bm_args.begin(), bm_args.end(), [](const char* a) {
        return std::strncmp(a, "--benchmark_min_time", 20) == 0;
      });
  if (options.smoke && !user_time) bm_args.push_back(smoke_time.data());

  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) {
    return 2;
  }
  RecordingReporter console(reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return reporter.finish() ? 0 : 1;
}
