// Extension (no experiment ID) — tail latency of fork-per-request serving.
//
// The paper's NGINX master/worker setting as a single serving station: a
// one-tier, one-pool topology (src/workload/topology.h) of four worker
// slots behind one bounded queue. Each admitted request is served by a
// fresh CoW fork of its class's master image, and a crashed attempt backs
// off and retries with fresh keys. The sweep is scheme x offered load x
// baseline fault rate; per configuration the bench reports end-to-end
// p50/p90/p99/p999 in *simulated cycles* from obs::LogHistogram, plus
// drops (backpressure), retries, and goodput over the simulated makespan.
//
// Observability: --json trajectories carry the "topology" section (sweep
// totals + per-configuration outcome entries) and per-configuration "obs"
// counters; --trace records one representative configuration's request
// span timeline (Perfetto async events + queue/in-flight counter tracks).
// Every integer section — including the full percentile trajectory — is
// bitwise identical for any --threads value (pinned by the
// bench_serving_invariance ctest target at 1 vs 2 vs 8 threads).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "workload/topology.h"

int main(int argc, char** argv) {
  using namespace acs;
  using compiler::Scheme;

  const auto options =
      bench::parse_bench_args(argc, argv, "bench_serving_tail",
                              /*extra_usage=*/nullptr, /*obs_flags=*/true);
  bench::BenchReporter reporter("bench_serving_tail", options, 180);
  if (!options.profile_path.empty()) {
    // Reject up front rather than silently writing an empty profile: the
    // topology simulation does not collect folded cycle stacks.
    std::fprintf(stderr, "bench_serving_tail: --profile is not wired to the "
                         "topology simulation\n");
    return 2;
  }

  const bool collect_metrics = !options.json_path.empty();
  obs::Metrics obs_metrics;
  std::string trace_json;
  bench::TopologySection totals;

  std::printf("PACStack reproduction — serving tail latency "
              "(one-tier fork-per-request topology)\n");
  std::printf("(latencies are end-to-end simulated cycles; load is %% of "
              "calibrated capacity of 4 workers)\n\n");

  Table sweep({"scheme", "load %", "faults/M", "p50", "p99", "p999",
               "dropped", "retries", "goodput_rps"});

  const struct {
    Scheme scheme;
    const char* label;
  } kSchemes[] = {{Scheme::kNone, "baseline"}, {Scheme::kPacStack, "pacstack"}};
  const std::vector<unsigned> loads = options.smoke
                                          ? std::vector<unsigned>{70, 110}
                                          : std::vector<unsigned>{60, 90, 120};
  // The smoke rate is high enough that the 60-request pin crosses the
  // crash, backoff and retry path.
  const std::vector<double> rates = options.smoke
                                        ? std::vector<double>{0, 200}
                                        : std::vector<double>{0, 20, 60};

  bool traced = false;
  for (const auto& scheme : kSchemes) {
    for (const unsigned load : loads) {
      for (const double rate : rates) {
        workload::TopologyConfig config;
        config.tiers = 1;
        config.pools_per_tier = 1;
        config.workers_per_pool = 4;
        config.requests = options.smoke ? 60 : 250;
        config.load_percent = load;
        config.queue_capacity = 32;
        config.faults_per_million = rate;
        config.max_restarts = 3;
        config.backoff_initial_cycles = 50'000;
        config.attempt_instr_budget = 4'000'000;
        config.gauge_cadence_cycles = 20'000;
        config.seed = 180;
        config.collect_metrics = collect_metrics;
        // Trace one representative configuration: the first saturated,
        // faulted pacstack sweep point — its timeline shows admission,
        // queueing, crash, backoff, and retry spans in one file.
        const bool trace_this = !options.trace_path.empty() && !traced &&
                                scheme.scheme == Scheme::kPacStack &&
                                load > 100 && rate > 0;
        config.trace = trace_this;

        const auto result =
            workload::run_topology_simulation(scheme.scheme, config);

        const std::string tag = std::string(scheme.label) + "_load" +
                                std::to_string(load) + "_f" +
                                std::to_string(static_cast<int>(rate));
        if (collect_metrics) obs_metrics.merge(result.metrics, tag + ".");
        if (trace_this) {
          trace_json = result.trace_json;
          traced = true;
        }
        totals.add(tag, result);

        sweep.add_row(
            {scheme.label, std::to_string(load), Table::fmt(rate, 0),
             std::to_string(result.latency.p50()),
             std::to_string(result.latency.p99()),
             std::to_string(result.latency.p999()),
             std::to_string(result.dropped), std::to_string(result.retries),
             Table::fmt(result.goodput_rps, 0)});
        reporter.record("p50_" + tag, static_cast<double>(result.latency.p50()),
                        "cycles", result.latency.count());
        reporter.record("p90_" + tag, static_cast<double>(result.latency.p90()),
                        "cycles", result.latency.count());
        reporter.record("p99_" + tag, static_cast<double>(result.latency.p99()),
                        "cycles", result.latency.count());
        reporter.record("p999_" + tag,
                        static_cast<double>(result.latency.p999()), "cycles",
                        result.latency.count());
        reporter.record("goodput_rps_" + tag, result.goodput_rps, "req/s",
                        result.requests);
        reporter.record("dropped_" + tag, static_cast<double>(result.dropped),
                        "requests", result.requests);
      }
    }
  }
  sweep.print(std::cout);
  std::printf("\nlatency = completion - arrival (queue wait + attempts + "
              "backoff), simulated cycles.\nbackpressure: arrivals beyond "
              "queue_capacity=32 are dropped, not queued.\ngoodput = "
              "completions within the deadline (8 x mean service).\n");

  bool ok = true;
  if (!options.trace_path.empty()) {
    ok = bench::write_file(options.trace_path, trace_json,
                           "bench_serving_tail --trace") &&
         ok;
    if (ok) std::printf("[trace] wrote %s\n", options.trace_path.c_str());
  }
  if (collect_metrics) reporter.set_obs_metrics(std::move(obs_metrics));
  reporter.set_topology_section(std::move(totals));
  return (reporter.finish() && ok) ? 0 : 1;
}
