// Extension (no experiment ID) — multi-tier serving topology under
// correlated fault storms (src/workload/topology.h).
//
// Requests traverse two tiers of CoW-forked worker pools behind per-tier
// load balancers, carrying an end-to-end deadline. The sweep is scheme x
// offered load x storm intensity x mitigation arm:
//   none          no budget, breaker, or shedding — the control arm
//   retry-budget  retries bounded by a per-pool token bucket
//   breaker-shed  retry budget + circuit breaker + priority shedding +
//                 expired-entry dropping
//
// The headline is *metastability*: with a mid-trace fault storm on one
// pool, the unmitigated arm's post-storm goodput stays collapsed after
// the storm ends (the backlog of stale work never drains ahead of fresh
// arrivals), while breaker-shed recovers within the same trace. The
// per-phase goodput split that shows this is in the "topology" JSON
// section and pinned against a checked-in reference by the
// bench_topology_invariance ctest target.
//
// Observability: --json trajectories carry the "topology" section (sweep
// totals + per-configuration outcome entries) and per-configuration "obs"
// counters (topo.* + per-tier gauges); --trace records one representative
// stormed breaker-shed configuration's per-tier span timeline. Every
// integer section is bitwise identical for any --threads value.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "inject/plan.h"
#include "obs/metrics.h"
#include "workload/topology.h"

int main(int argc, char** argv) {
  using namespace acs;
  using compiler::Scheme;
  using workload::Mitigation;

  const auto options =
      bench::parse_bench_args(argc, argv, "bench_serving_topology",
                              /*extra_usage=*/nullptr, /*obs_flags=*/true);
  bench::BenchReporter reporter("bench_serving_topology", options, 42);
  if (!options.profile_path.empty()) {
    // Reject up front rather than silently writing an empty profile: the
    // topology simulation does not collect folded cycle stacks.
    std::fprintf(stderr, "bench_serving_topology: --profile is not wired to "
                         "the topology simulation\n");
    return 2;
  }

  const bool collect_metrics = !options.json_path.empty();
  std::string trace_json;
  bench::TopologySection totals;

  std::printf("PACStack reproduction — multi-tier serving topology under "
              "correlated fault storms\n");
  std::printf("(2 tiers x 3 pools x 1 worker; storm melts tier0/pool0 over "
              "the middle of the trace;\n goodput = completions within "
              "deadline; post = goodput/arrivals after the storm ends)\n\n");

  Table sweep({"scheme", "load %", "storm f/M", "mitigation", "goodput",
               "post", "p99", "dropped", "failed", "trips"});

  const struct {
    Scheme scheme;
    const char* label;
  } kSchemes[] = {{Scheme::kNone, "baseline"}, {Scheme::kPacStack, "pacstack"}};
  const std::vector<unsigned> loads =
      options.smoke ? std::vector<unsigned>{90}
                    : std::vector<unsigned>{80, 90};
  const std::vector<double> storms =
      options.smoke ? std::vector<double>{0, 8000}
                    : std::vector<double>{0, 3000, 8000};
  const Mitigation kArms[] = {Mitigation::kNone, Mitigation::kRetryBudget,
                              Mitigation::kBreakerShed};

  obs::Metrics obs_metrics;
  bool traced = false;
  for (const auto& scheme : kSchemes) {
    for (const unsigned load : loads) {
      for (const double storm : storms) {
        for (const Mitigation arm : kArms) {
          workload::TopologyConfig config;
          config.tiers = 2;
          config.pools_per_tier = 3;
          config.workers_per_pool = 1;
          config.requests = options.smoke ? 400 : 600;
          config.load_percent = load;
          config.queue_capacity = 64;
          config.storm_faults_per_million = storm;
          config.storm_begin_permille = 150;
          config.storm_end_permille = 750;
          // Budget-exhaust faults hang the victim until the per-attempt
          // watchdog fires — the expensive failure mode a storm needs to
          // push a tier past saturation (see workload/topology.h).
          config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
          config.seed = 42;
          config.threads = options.threads;
          config.collect_metrics = collect_metrics;
          workload::apply_mitigation(config, arm);
          // Trace one representative configuration: the first stormed
          // breaker-shed pacstack point — its timeline shows tier hops,
          // breaker trips/probes, shedding, and deadline misses at once.
          const bool trace_this = !options.trace_path.empty() && !traced &&
                                  scheme.scheme == Scheme::kPacStack &&
                                  storm > 0 && arm == Mitigation::kBreakerShed;
          config.trace = trace_this;

          const auto result =
              workload::run_topology_simulation(scheme.scheme, config);

          const std::string tag =
              std::string(scheme.label) + "_load" + std::to_string(load) +
              "_s" + std::to_string(static_cast<int>(storm)) + "_" +
              workload::mitigation_name(arm);
          if (collect_metrics) obs_metrics.merge(result.metrics, tag + ".");
          if (trace_this) {
            trace_json = result.trace_json;
            traced = true;
          }

          totals.add(tag, result);

          const std::string post =
              std::to_string(result.post_storm.goodput) + "/" +
              std::to_string(result.post_storm.arrivals);
          sweep.add_row({scheme.label, std::to_string(load),
                         Table::fmt(storm, 0), workload::mitigation_name(arm),
                         std::to_string(result.goodput), post,
                         std::to_string(result.latency.p99()),
                         std::to_string(result.dropped),
                         std::to_string(result.failed),
                         std::to_string(result.breaker_trips)});
          reporter.record("goodput_" + tag,
                          static_cast<double>(result.goodput), "requests",
                          result.requests);
          reporter.record("post_storm_goodput_" + tag,
                          static_cast<double>(result.post_storm.goodput),
                          "requests", result.post_storm.arrivals);
          reporter.record("p99_" + tag,
                          static_cast<double>(result.latency.p99()), "cycles",
                          result.latency.count());
          reporter.record("crashed_attempts_" + tag,
                          static_cast<double>(result.crashed_attempts),
                          "attempts", result.requests);
        }
      }
    }
  }
  sweep.print(std::cout);
  std::printf("\nmetastability: under a storm the 'none' arm's post column "
              "collapses and stays\ncollapsed after the storm ends; "
              "breaker-shed recovers within the same trace.\n");

  bool ok = true;
  if (!options.trace_path.empty()) {
    ok = bench::write_file(options.trace_path, trace_json,
                           "bench_serving_topology --trace") &&
         ok;
    if (ok) std::printf("[trace] wrote %s\n", options.trace_path.c_str());
  }
  if (collect_metrics) reporter.set_obs_metrics(std::move(obs_metrics));
  reporter.set_topology_section(std::move(totals));
  return (reporter.finish() && ok) ? 0 : 1;
}
