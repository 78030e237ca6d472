// Synthetic-kernel overhead surface (docs/synthetic-kernels.md): every
// scheme crossed with every named point of the synth kernel catalogue
// (src/synth/families.h) — call-depth distributions, recursion/leaf mixes,
// indirect-call densities, setjmp/exception/signal traffic, frame
// footprints. Where Figure 5 samples overhead at a handful of fixed SPEC
// mixes, this sweep measures the axis the paper argues the cost actually
// follows: authentication density per retired instruction.
//
// Every (kernel, scheme) run carries an obs::Recorder, so the JSON
// "kernels" section attributes cycles per dynamic call and per retired
// instruction, alongside the PA-instruction and chain-push counts that
// explain *where* a scheme's tax lands. Cycle counts come from the
// deterministic simulator and runs are sequenced through
// exec::parallel_map_trials — the trajectory is bitwise identical for
// every --threads value (pinned by the bench_kernels_invariance ctest).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "compiler/codegen.h"
#include "compiler/scheme.h"
#include "exec/parallel.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "synth/families.h"
#include "synth/generator.h"

namespace {

using namespace acs;

struct JobResult {
  synth::KernelShape shape;
  u64 cycles = 0;        ///< simulated cycles to clean exit
  u64 instructions = 0;  ///< instructions retired
  obs::Metrics metrics;
  bool clean_exit = false;
};

/// One (kernel spec, scheme) measurement with a metrics recorder attached.
/// Pure function of its arguments — the machine seed is fixed, the kernel
/// is a pure function of (params, seed).
JobResult run_job(const synth::KernelSpec& spec, compiler::Scheme scheme) {
  const compiler::ProgramIr ir =
      synth::generate_kernel(spec.params, spec.seed);

  obs::RecorderConfig rc;
  rc.metrics = true;
  rc.sim_hz = sim::kSimulatedHz;
  obs::Recorder recorder(rc);

  const auto program = compiler::compile_ir(ir, {.scheme = scheme});
  kernel::MachineOptions options;
  options.seed = 1;
  options.recorder = &recorder;
  kernel::Machine machine(program, options);
  machine.run();

  auto& process = machine.init_process();
  return JobResult{
      .shape = synth::measure_shape(ir),
      .cycles = process.cycles(),
      .instructions = process.instructions(),
      .metrics = recorder.metrics(),
      .clean_exit = process.state == kernel::ProcessState::kExited &&
                    process.exit_code == 0,
  };
}

/// One "kernels" entry: the run's static shape and simulated cost, plus
/// the per-call and per-instruction attribution derived from its obs
/// counters. The doubles are ratios of deterministic integers.
bench::JsonObject kernel_entry(const JobResult& job, u64 base_cycles) {
  u64 calls = 0;  // dynamic calls: the sim.call.depth histogram total
  const auto& histograms = job.metrics.histograms();
  if (const auto it = histograms.find("sim.call.depth");
      it != histograms.end()) {
    calls = it->second.total();
  }
  const auto ratio = [](u64 num, u64 den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  return bench::JsonObject()
      .add("functions", job.shape.functions)
      .add("static_calls", job.shape.call_sites)
      .add("static_depth", job.shape.max_static_depth)
      .add("cycles", job.cycles)
      .add("instructions", job.instructions)
      .add("calls", calls)
      .add("pa_instructions", job.metrics.counter("sim.instr.pa"))
      .add("chain_pushes", job.metrics.counter("chain.push"))
      .add("overhead_percent", (ratio(job.cycles, base_cycles) - 1.0) * 100.0)
      .add("cycles_per_call", ratio(job.cycles, calls))
      .add("cycles_per_instruction", ratio(job.cycles, job.instructions));
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_bench_args(argc, argv, "bench_kernel_sweep");
  bench::BenchReporter reporter("bench_kernel_sweep", options, 1);

  const std::vector<synth::KernelSpec> specs =
      synth::sweep_specs(options.smoke);
  const std::vector<compiler::Scheme>& schemes = compiler::all_schemes();

  std::printf("Synthetic-kernel overhead sweep — %zu kernels x %zu schemes "
              "(docs/synthetic-kernels.md)\n",
              specs.size(), schemes.size());
  std::printf("(deterministic simulated cycles; overhead %% vs the "
              "uninstrumented baseline of the same kernel)\n\n");

  // Flat (spec x scheme) job list through the deterministic trial runner:
  // results land at their job index, so every reduction below is in fixed
  // sweep order regardless of --threads.
  const u64 n_jobs = specs.size() * schemes.size();
  const std::vector<JobResult> results =
      exec::parallel_map_trials<JobResult>(
          n_jobs, /*base_seed=*/1,
          [&](u64 job, u64 /*seed*/) {
            return run_job(specs[job / schemes.size()],
                           schemes[job % schemes.size()]);
          },
          options.threads);

  u64 total_cycles = 0;
  u64 total_instructions = 0;
  std::map<std::string, bench::JsonObject> entries;
  obs::Metrics obs_totals;
  std::vector<std::string> header = {"kernel", "baseline cycles"};
  for (const compiler::Scheme scheme : schemes) {
    if (scheme != compiler::Scheme::kNone) {
      header.push_back(compiler::scheme_name(scheme));
    }
  }
  Table table(header);
  // Geometric mean of (1 + overhead) per scheme, accumulated in fixed
  // kernel order.
  std::vector<double> log_ratio_sum(schemes.size(), 0.0);

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string kernel_tag = specs[s].family + "/" + specs[s].point;
    const u64 base_cycles =
        results[s * schemes.size()].cycles;  // schemes[0] == kNone
    std::vector<std::string> row = {kernel_tag,
                                    Table::fmt_count(base_cycles)};
    for (std::size_t c = 0; c < schemes.size(); ++c) {
      const JobResult& result = results[s * schemes.size() + c];
      if (!result.clean_exit) {
        std::fprintf(stderr, "%s under %s did not exit cleanly\n",
                     kernel_tag.c_str(),
                     compiler::scheme_name(schemes[c]).c_str());
        return 1;
      }
      const double cycle_ratio = static_cast<double>(result.cycles) /
                                 static_cast<double>(base_cycles);
      log_ratio_sum[c] += std::log(cycle_ratio);
      if (schemes[c] != compiler::Scheme::kNone) {
        row.push_back(Table::fmt((cycle_ratio - 1.0) * 100.0, 2));
      }
      total_cycles += result.cycles;
      total_instructions += result.instructions;
      entries.emplace(kernel_tag + "/" + compiler::scheme_name(schemes[c]),
                      kernel_entry(result, base_cycles));
      obs_totals.merge(result.metrics,
                       compiler::scheme_name(schemes[c]) + ".");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf("\n-- geomean overhead across the kernel surface --\n");
  for (std::size_t c = 0; c < schemes.size(); ++c) {
    if (schemes[c] == compiler::Scheme::kNone) continue;
    const double geomean =
        (std::exp(log_ratio_sum[c] / static_cast<double>(specs.size())) -
         1.0) *
        100.0;
    std::printf("  %-16s %6.2f%%\n",
                compiler::scheme_name(schemes[c]).c_str(), geomean);
    reporter.record("geomean_overhead_" + compiler::scheme_name(schemes[c]),
                    geomean, "percent", specs.size());
  }

  reporter.set_section("kernels", bench::JsonObject()
                                      .add("kernels", specs.size())
                                      .add("schemes", schemes.size())
                                      .add("runs", n_jobs)
                                      .add("total_cycles", total_cycles)
                                      .add("total_instructions",
                                           total_instructions)
                                      .add("entries", entries));
  reporter.set_obs_metrics(std::move(obs_totals));
  return reporter.finish() ? 0 : 1;
}
