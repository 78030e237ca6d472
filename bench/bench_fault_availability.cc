// Extension (no experiment ID) — availability under fault injection
// (Sections 4.3 / 6.1).
//
// The paper's crash-and-restart premise: a corrupted authenticated return
// chain crashes the worker, the master restarts it, and service degrades
// instead of falling over. Two campaigns:
//
//   1. Availability sweep — scheme x injected-fault rate x restart policy.
//      Reports TPS-under-fault, delivered availability, restart counts and
//      failed slots for the supervised NGINX-like worker fleet
//      (workload::run_worker_fleet over src/inject plans).
//
//   2. The Section 6.1 key-lifetime experiment — a guessing adversary
//      corrupts a small window of CR's PAC field once per worker
//      generation. With keys *inherited* across restarts (fork semantics)
//      the guesses enumerate the window without replacement; with
//      *rekey-on-restart* every generation re-randomises the target. The
//      measured gap in adversary success is the paper's argument for
//      re-randomising keys on worker restart.
//
// Observability: --json trajectories carry the "faults" section (campaign
// totals) plus per-configuration "obs" counters; --trace records one
// inherit-mode worker slot; --profile writes folded cycle stacks. All
// integer sections are bitwise identical for every --threads value
// (pinned by the bench_fault_invariance ctest target).
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
  using workload::RestartMode;

  const auto options =
      bench::parse_bench_args(argc, argv, "bench_fault_availability",
                              /*extra_usage=*/nullptr, /*obs_flags=*/true);
  bench::BenchReporter reporter("bench_fault_availability", options, 140);

  const bool collect_metrics = !options.json_path.empty();
  const bool collect_profile = !options.profile_path.empty();
  obs::Metrics obs_metrics;
  obs::FoldedProfile obs_profile;
  std::string trace_json;
  // Campaign totals for the "faults" section, folded in campaign order.
  workload::FleetResult totals;
  const auto fold = [&](const workload::FleetResult& result) {
    for (const auto& [kind, count] : result.injected) {
      totals.injected[kind] += count;
    }
    for (const auto& [cause, count] : result.crashes) {
      totals.crashes[cause] += count;
    }
    totals.restarts += result.restarts;
    totals.guess_attempts += result.guess_attempts;
    totals.guess_successes += result.guess_successes;
    totals.backoff_cycles += result.backoff_cycles;
  };

  std::printf("PACStack reproduction — availability under fault injection "
              "(supervised worker fleet)\n");
  std::printf("(paper: USENIX Security'21 Sections 4.3 / 6.1)\n\n");

  // --- campaign 1: scheme x fault rate x restart policy -----------------
  Table sweep({"scheme", "faults/M", "policy", "req/sec", "sigma",
               "avail %", "restarts", "failed"});

  const struct {
    Scheme scheme;
    const char* label;
  } kSchemes[] = {{Scheme::kNone, "baseline"}, {Scheme::kPacStack, "pacstack"}};
  const std::vector<double> rates =
      options.smoke ? std::vector<double>{0, 4} : std::vector<double>{0, 2, 8};
  const RestartMode kModes[] = {RestartMode::kRestartInherit,
                                RestartMode::kRestartRekey};

  bool traced = false;
  for (const auto& scheme : kSchemes) {
    for (const double rate : rates) {
      for (const RestartMode mode : kModes) {
        workload::FleetConfig config;
        config.workers = 4;
        config.requests_per_worker = options.smoke ? 40 : 150;
        config.repeats = options.smoke ? 2 : 3;
        config.seed = 140;
        config.threads = options.threads;
        config.policy.mode = mode;
        config.policy.max_restarts = 5;
        config.faults_per_million = rate;
        config.collect_metrics = collect_metrics;
        config.collect_profile = collect_profile;
        // Trace one representative configuration: the first faulted
        // pacstack fleet (slot 0 only).
        const bool trace_this = !options.trace_path.empty() && !traced &&
                                scheme.scheme == Scheme::kPacStack && rate > 0;
        config.trace_first_trial = trace_this;
        const bool want_obs = collect_metrics || collect_profile || trace_this;

        workload::NginxObs obs_out;
        const auto result = workload::run_worker_fleet(
            scheme.scheme, config, want_obs ? &obs_out : nullptr);
        fold(result);

        const std::string tag = std::string(scheme.label) + "_" +
                                workload::restart_mode_name(mode) + "_fpm" +
                                std::to_string(static_cast<int>(rate));
        if (collect_metrics) obs_metrics.merge(obs_out.metrics, tag + ".");
        if (collect_profile) obs_profile.merge(obs_out.profile, tag);
        if (trace_this) {
          trace_json = obs_out.trace_json;
          traced = true;
        }

        sweep.add_row({scheme.label, Table::fmt(rate, 0),
                       workload::restart_mode_name(mode),
                       Table::fmt(result.requests_per_second, 0),
                       Table::fmt(result.stddev, 0),
                       Table::fmt(result.availability() * 100.0, 1),
                       std::to_string(result.restarts),
                       std::to_string(result.failed_slots)});
        reporter.record("tps_" + tag, result.requests_per_second, "req/s",
                        result.total_slots, result.stddev);
        reporter.record("availability_" + tag, result.availability(),
                        "fraction", result.total_slots);
        reporter.record("restarts_" + tag,
                        static_cast<double>(result.restarts), "restarts",
                        result.total_slots);
      }
    }
  }
  sweep.print(std::cout);

  // --- campaign 2: Section 6.1 — inherited keys vs rekey-on-restart -----
  std::printf("\nKey-lifetime experiment: one %u-bit PAC-window guess per "
              "worker generation\n",
              3U);
  Table guesses({"policy", "slots", "attempts", "successes", "success rate"});

  workload::FleetResult guess_results[2];
  for (int i = 0; i < 2; ++i) {
    const RestartMode mode =
        i == 0 ? RestartMode::kRestartInherit : RestartMode::kRestartRekey;
    workload::FleetConfig config;
    config.workers = options.smoke ? 4 : 8;
    config.requests_per_worker = options.smoke ? 30 : 60;
    config.repeats = options.smoke ? 2 : 8;
    config.seed = 141;
    config.threads = options.threads;
    config.policy.mode = mode;
    config.policy.max_restarts = 5;  // 6 guesses per slot
    config.guess_window = 3;         // 8-value window (Section 6.1's small b)
    config.collect_metrics = collect_metrics;

    workload::NginxObs obs_out;
    guess_results[i] = workload::run_worker_fleet(
        Scheme::kPacStack, config, collect_metrics ? &obs_out : nullptr);
    const auto& result = guess_results[i];
    fold(result);

    const std::string tag = std::string("guess_") +
                            workload::restart_mode_name(mode);
    if (collect_metrics) obs_metrics.merge(obs_out.metrics, tag + ".");
    guesses.add_row({workload::restart_mode_name(mode),
                     std::to_string(result.total_slots),
                     std::to_string(result.guess_attempts),
                     std::to_string(result.guess_successes),
                     Table::fmt(result.guess_success_rate(), 3)});
    reporter.record(tag + "_successes",
                    static_cast<double>(result.guess_successes), "guesses",
                    result.total_slots);
    reporter.record(tag + "_rate", result.guess_success_rate(), "probability",
                    result.total_slots);
  }
  guesses.print(std::cout);

  std::printf("\nPaper reference: inheriting PA keys across worker restarts "
              "lets guesses accumulate\n(without replacement); "
              "rekey-on-restart re-randomises the target each generation.\n");
  std::printf("inherit successes=%llu rekey successes=%llu\n",
              static_cast<unsigned long long>(guess_results[0].guess_successes),
              static_cast<unsigned long long>(
                  guess_results[1].guess_successes));

  bool ok = true;
  if (!options.trace_path.empty()) {
    ok = bench::write_file(options.trace_path, trace_json,
                           "bench_fault_availability --trace") &&
         ok;
    if (ok) std::printf("[trace] wrote %s\n", options.trace_path.c_str());
  }
  if (collect_profile) {
    ok = bench::write_file(options.profile_path, obs_profile.folded(),
                           "bench_fault_availability --profile") &&
         ok;
    if (ok) std::printf("[profile] wrote %s\n", options.profile_path.c_str());
  }
  if (collect_metrics) reporter.set_obs_metrics(std::move(obs_metrics));
  reporter.set_section("faults",
                       bench::JsonObject()
                           .add("injected", totals.injected)
                           .add("crashes", totals.crashes)
                           .add("restarts", totals.restarts)
                           .add("guess_attempts", totals.guess_attempts)
                           .add("guess_successes", totals.guess_successes)
                           .add("backoff_cycles", totals.backoff_cycles));
  return (reporter.finish() && ok) ? 0 : 1;
}
