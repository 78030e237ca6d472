// E4 — reproduces **Table 3**: "Requests/second, standard deviation and
// performance overhead for the NGINX SSL TPS tests" with 4 and 8 workers,
// for PACStack and PACStack-nomask.
//
// Paper values: 4 workers — baseline 14.2k, nomask 13.7k (-3.5%), full
// 13.5k (-4.9%); 8 workers — baseline 30.7k, nomask 28.6k (-6.8%), full
// 27.2k (-11.4%); i.e. 4-7% (nomask) and 6-13% (full) overhead. The
// workers are a fault-free worker fleet (workload/fleet.h) under the
// default fail-fast policy: a crashed worker aborts the bench.
//
// Observability (src/obs): --json trajectories carry per-scheme event
// counters ("pacstack.pa.sign", ...) in the "obs" section; --trace records
// a Perfetto-loadable event trace of one pacstack worker; --profile writes
// folded cycle stacks for all three schemes, rooted at the scheme name so
// the overhead decomposes by call site in a flamegraph diff.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/harness.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "workload/fleet.h"

int main(int argc, char** argv) {
  using namespace acs;
  using compiler::Scheme;

  const auto options =
      bench::parse_bench_args(argc, argv, "bench_table3_nginx",
                              /*extra_usage=*/nullptr, /*obs_flags=*/true);
  bench::BenchReporter reporter("bench_table3_nginx", options, 90);

  const bool collect_metrics = !options.json_path.empty();
  const bool collect_profile = !options.profile_path.empty();
  obs::Metrics obs_metrics;
  obs::FoldedProfile obs_profile;
  std::string trace_json;

  std::printf("PACStack reproduction — Table 3: NGINX SSL TPS (simulated, "
              "CPU-bound request loop)\n");
  std::printf("(paper: USENIX Security'21 Section 7.2)\n\n");

  Table table({"# workers", "scheme", "req/sec", "sigma", "overhead %"});

  bool traced = false;
  for (unsigned workers : {4U, 8U}) {
    workload::FleetConfig config;
    config.workers = workers;
    config.requests_per_worker = options.smoke ? 50 : 250;
    config.repeats = options.smoke ? 2 : 5;
    config.seed = 90 + workers;
    config.threads = options.threads;
    config.collect_metrics = collect_metrics;
    config.collect_profile = collect_profile;

    const auto run_scheme = [&](Scheme scheme, const char* label,
                                bool trace_this) {
      workload::FleetConfig c = config;
      c.trace_first_trial = trace_this;
      const bool want_obs =
          collect_metrics || collect_profile || trace_this;
      workload::NginxObs obs_out;
      const auto result = workload::run_worker_fleet(
          scheme, c, want_obs ? &obs_out : nullptr);
      // Per-scheme decomposition: "pacstack.pa.sign" vs "baseline.pa.sign".
      if (collect_metrics) {
        obs_metrics.merge(obs_out.metrics, std::string(label) + ".");
      }
      if (collect_profile) obs_profile.merge(obs_out.profile, label);
      if (trace_this) trace_json = obs_out.trace_json;
      return result;
    };

    // Trace one representative pacstack worker (first worker count only);
    // the baseline/nomask runs stay untraced.
    const bool trace_now = !options.trace_path.empty() && !traced;
    const auto baseline = run_scheme(Scheme::kNone, "baseline", false);
    const auto nomask =
        run_scheme(Scheme::kPacStackNoMask, "pacstack-nomask", false);
    const auto full = run_scheme(Scheme::kPacStack, "pacstack", trace_now);
    traced = traced || trace_now;

    const auto add = [&](const char* label,
                         const workload::FleetResult& result) {
      const double overhead = (1.0 - result.requests_per_second /
                                         baseline.requests_per_second) *
                              100.0;
      table.add_row({std::to_string(workers), label,
                     Table::fmt(result.requests_per_second, 0),
                     Table::fmt(result.stddev, 0),
                     label == std::string{"baseline"}
                         ? "-"
                         : Table::fmt(overhead, 1)});
      reporter.record("tps_" + std::string(label) + "_w" +
                          std::to_string(workers),
                      result.requests_per_second, "req/s", result.total_slots,
                      result.stddev);
    };
    add("baseline", baseline);
    add("pacstack-nomask", nomask);
    add("pacstack", full);
  }
  table.print(std::cout);

  std::printf("\nPaper reference: nomask 4-7%% / full 6-13%% TPS loss; "
              "~2x TPS from 4 -> 8 workers.\n");

  bool ok = true;
  if (!options.trace_path.empty()) {
    ok = bench::write_file(options.trace_path, trace_json,
                           "bench_table3_nginx --trace") &&
         ok;
    if (ok) std::printf("[trace] wrote %s\n", options.trace_path.c_str());
  }
  if (collect_profile) {
    ok = bench::write_file(options.profile_path, obs_profile.folded(),
                           "bench_table3_nginx --profile") &&
         ok;
    if (ok) std::printf("[profile] wrote %s\n", options.profile_path.c_str());
  }
  if (collect_metrics) reporter.set_obs_metrics(std::move(obs_metrics));
  return (reporter.finish() && ok) ? 0 : 1;
}
