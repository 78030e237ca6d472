#include "workload/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload/serving.h"

namespace acs::workload {
namespace {

using compiler::Scheme;

u64 drop_sum(const TopologyResult& result) {
  u64 total = 0;
  for (const auto& [cause, count] : result.drops) total += count;
  return total;
}

TopologyConfig base_config() {
  TopologyConfig config;
  config.tiers = 2;
  config.pools_per_tier = 3;
  config.workers_per_pool = 2;
  config.requests = 80;
  config.load_percent = 80;
  config.queue_capacity = 16;
  config.seed = 11;
  return config;
}

/// The metastability experiment: a 2-tier path at 90% load, one
/// single-worker pool per tier (so the stormed pool is a third of tier
/// capacity), and a watchdog-kill storm on tier 0 / pool 0 spanning the
/// [150, 750) per-mille arrival window.
TopologyConfig storm_config() {
  TopologyConfig config;
  config.tiers = 2;
  config.pools_per_tier = 3;
  config.workers_per_pool = 1;
  config.requests = 400;
  config.load_percent = 90;
  config.queue_capacity = 64;
  config.storm_faults_per_million = 8000;
  config.storm_begin_permille = 150;
  config.storm_end_permille = 750;
  config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
  config.threads = 0;
  return config;
}

/// The single-station serving preset bench_serving_tail runs: one tier, one
/// pool of four workers behind one bounded queue, retried crashes.
TopologyConfig one_tier_config() {
  TopologyConfig config;
  config.tiers = 1;
  config.pools_per_tier = 1;
  config.workers_per_pool = 4;
  config.requests = 50;
  config.load_percent = 80;
  config.queue_capacity = 32;
  config.max_restarts = 3;
  config.backoff_initial_cycles = 50'000;
  config.attempt_instr_budget = 4'000'000;
  config.gauge_cadence_cycles = 20'000;
  config.seed = 11;
  return config;
}

// --- naming and arm selection ---------------------------------------------

TEST(Topology, MitigationNamesAreStable) {
  EXPECT_STREQ(mitigation_name(Mitigation::kNone), "none");
  EXPECT_STREQ(mitigation_name(Mitigation::kRetryBudget), "retry-budget");
  EXPECT_STREQ(mitigation_name(Mitigation::kBreakerShed), "breaker-shed");
}

TEST(Topology, ApplyMitigationTogglesOnlyTheMitigationKnobs) {
  TopologyConfig config = base_config();
  apply_mitigation(config, Mitigation::kBreakerShed);
  EXPECT_TRUE(config.retry_budget_enabled);
  EXPECT_TRUE(config.breaker_enabled);
  EXPECT_TRUE(config.shed_enabled);
  EXPECT_TRUE(config.drop_expired);
  apply_mitigation(config, Mitigation::kRetryBudget);
  EXPECT_TRUE(config.retry_budget_enabled);
  EXPECT_FALSE(config.breaker_enabled);
  EXPECT_FALSE(config.shed_enabled);
  EXPECT_FALSE(config.drop_expired);
  apply_mitigation(config, Mitigation::kNone);
  EXPECT_FALSE(config.retry_budget_enabled);
  // The non-mitigation knobs are untouched.
  EXPECT_EQ(config.requests, base_config().requests);
  EXPECT_EQ(config.load_percent, base_config().load_percent);
}

// --- accounting -----------------------------------------------------------

TEST(Topology, FaultFreeRunCompletesEveryRequestWithinDeadline) {
  const auto result = run_topology_simulation(Scheme::kPacStack, base_config());
  EXPECT_EQ(result.requests, 80U);
  EXPECT_EQ(result.completed, 80U);
  EXPECT_EQ(result.dropped, 0U);
  EXPECT_EQ(result.failed, 0U);
  EXPECT_EQ(result.goodput + result.deadline_missed, result.completed);
  EXPECT_EQ(result.crashed_attempts, 0U);
  EXPECT_EQ(result.retries, 0U);
  // One fork per (request, tier) when nothing crashes.
  EXPECT_EQ(result.forks, 80U * 2);
  EXPECT_EQ(result.latency.count(), result.completed);
  ASSERT_EQ(result.tiers.size(), 2U);
  for (const auto& tier : result.tiers) {
    EXPECT_EQ(tier.completed, 80U);
    EXPECT_EQ(tier.dispatched, 80U);
    EXPECT_EQ(tier.latency.count(), 80U);
    EXPECT_EQ(tier.queue_wait.count(), 80U);
  }
  EXPECT_GT(result.goodput_rps, 0.0);
  EXPECT_GT(result.mean_service_cycles, 0U);
  EXPECT_GT(result.deadline_cycles, 0U);
}

TEST(Topology, TerminalOutcomesPartitionTheRequests) {
  // Under storm + mitigations every request ends in exactly one bucket.
  for (auto m : {Mitigation::kNone, Mitigation::kRetryBudget,
                 Mitigation::kBreakerShed}) {
    TopologyConfig config = storm_config();
    apply_mitigation(config, m);
    const auto result = run_topology_simulation(Scheme::kPacStack, config);
    EXPECT_EQ(result.completed + result.dropped + result.failed,
              result.requests)
        << mitigation_name(m);
    EXPECT_EQ(drop_sum(result), result.dropped + result.failed)
        << mitigation_name(m);
    EXPECT_EQ(result.goodput + result.deadline_missed, result.completed)
        << mitigation_name(m);
    EXPECT_EQ(result.pre_storm.arrivals + result.storm.arrivals +
                  result.post_storm.arrivals,
              result.requests)
        << mitigation_name(m);
    EXPECT_EQ(result.pre_storm.goodput + result.storm.goodput +
                  result.post_storm.goodput,
              result.goodput)
        << mitigation_name(m);
    EXPECT_EQ(result.latency.count(), result.completed) << mitigation_name(m);
  }
}

// --- deadlines ------------------------------------------------------------

TEST(Topology, ImpossibleDeadlineMissesEverything) {
  TopologyConfig config = base_config();
  config.deadline_cycles = 1;  // nothing finishes two tiers in one cycle
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_EQ(result.completed, result.requests);  // still served...
  EXPECT_EQ(result.goodput, 0U);                 // ...but never on time
  EXPECT_EQ(result.deadline_missed, result.completed);
  EXPECT_EQ(result.deadline_cycles, 1U);
}

TEST(Topology, DropExpiredShedsDoomedWorkInsteadOfServingIt) {
  TopologyConfig config = base_config();
  config.deadline_cycles = 1;
  config.drop_expired = true;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  // Queued work already past the (absurd) deadline is dropped at dispatch.
  EXPECT_GT(result.drops.at("expired"), 0U);
  EXPECT_EQ(result.completed + result.dropped + result.failed,
            result.requests);
}

// --- backpressure and shedding --------------------------------------------

TEST(Topology, TinyQueuesRejectUnderOverload) {
  TopologyConfig config = base_config();
  config.requests = 120;
  config.load_percent = 150;
  config.queue_capacity = 2;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.drops.at("queue-full"), 0U);
  EXPECT_EQ(result.completed + result.dropped + result.failed,
            result.requests);
}

TEST(Topology, SheddingDropsLowPriorityFirst) {
  TopologyConfig config = base_config();
  config.requests = 150;
  config.load_percent = 160;
  config.queue_capacity = 8;
  config.shed_enabled = true;
  config.low_priority_permille = 500;
  const auto shed = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(shed.drops.at("shed-low-priority"), 0U);
  // Shedding fires at half-full queues, so it strictly precedes (and
  // reduces) hard queue-full rejections relative to the unmitigated run.
  config.shed_enabled = false;
  const auto unshed = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_LT(shed.drops.at("queue-full"), unshed.drops.at("queue-full"));
}

// --- retries, budgets, hedging --------------------------------------------

TEST(Topology, StormCausesCrashesAndRetries) {
  const auto result =
      run_topology_simulation(Scheme::kPacStack, storm_config());
  EXPECT_GT(result.crashed_attempts, 0U);
  EXPECT_GT(result.retries, 0U);
  EXPECT_GT(result.backoff_cycles, 0U);
  EXPECT_EQ(result.retry_budget_denied, 0U);  // budget off
  EXPECT_GT(result.storm_end_cycles, result.storm_begin_cycles);
  // Crashes concentrate on the stormed tier.
  EXPECT_GE(result.tiers[0].crashed_attempts,
            result.tiers[1].crashed_attempts);
}

TEST(Topology, ZeroRetryBudgetDeniesEveryRetry) {
  TopologyConfig config = storm_config();
  config.retry_budget_enabled = true;
  config.retry_budget_permille = 0;  // bucket never earns a token
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.crashed_attempts, 0U);
  EXPECT_EQ(result.retries, 0U);
  EXPECT_GT(result.retry_budget_denied, 0U);
  EXPECT_EQ(result.retry_budget_denied, result.drops.at("retry-budget"));
}

TEST(Topology, HedgingDuplicatesSlowQueuedRequests) {
  TopologyConfig config = base_config();
  config.requests = 150;
  config.load_percent = 140;  // deep queues so hedges actually fire
  config.hedge_after_cycles = 2'000;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.hedges, 0U);
  // A hedge is an extra dispatch, never an extra completion.
  EXPECT_EQ(result.completed + result.dropped + result.failed,
            result.requests);
  EXPECT_LE(result.completed, result.requests);
  u64 tier_hedges = 0;
  for (const auto& tier : result.tiers) tier_hedges += tier.hedges;
  EXPECT_EQ(tier_hedges, result.hedges);
}

// --- circuit breaker ------------------------------------------------------

TEST(Topology, BreakerTripsOnTheStormedPoolAndProbesBeforeClosing) {
  TopologyConfig config = storm_config();
  config.breaker_enabled = true;
  config.breaker_window = 4;
  config.breaker_trip_permille = 750;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.breaker_trips, 0U);
  EXPECT_GT(result.breaker_probes, 0U);
  // Every trip is on the stormed tier; the healthy tier never trips.
  EXPECT_EQ(result.tiers[0].breaker_trips, result.breaker_trips);
  EXPECT_EQ(result.tiers[1].breaker_trips, 0U);
}

// --- the headline: metastable collapse vs mitigated recovery --------------

TEST(Topology, UnmitigatedRetryStormGoesMetastablePacStack) {
  TopologyConfig config = storm_config();
  apply_mitigation(config, Mitigation::kNone);
  const auto unmitigated = run_topology_simulation(Scheme::kPacStack, config);
  apply_mitigation(config, Mitigation::kBreakerShed);
  const auto mitigated = run_topology_simulation(Scheme::kPacStack, config);

  // Both arms are healthy before the storm begins.
  EXPECT_GE(unmitigated.pre_storm.goodput * 100,
            unmitigated.pre_storm.arrivals * 90);
  EXPECT_GE(mitigated.pre_storm.goodput * 100,
            mitigated.pre_storm.arrivals * 90);

  // Metastability: after the storm ENDS, the unmitigated topology's
  // goodput stays collapsed (the stale FIFO backlog never drains ahead of
  // fresh arrivals), while breaker + budget + shedding recovers.
  ASSERT_GT(unmitigated.post_storm.arrivals, 0U);
  EXPECT_LE(unmitigated.post_storm.goodput * 100,
            unmitigated.post_storm.arrivals * 20);
  EXPECT_GE(mitigated.post_storm.goodput * 100,
            mitigated.post_storm.arrivals * 60);
  // And end-to-end the mitigated arm wins on goodput outright.
  EXPECT_GE(mitigated.goodput, unmitigated.goodput + 40);
  EXPECT_GT(mitigated.drops.at("shed-low-priority") +
                mitigated.drops.at("expired"),
            0U);
}

TEST(Topology, UnmitigatedRetryStormGoesMetastableBaseline) {
  // The same collapse-vs-recovery signature under the unprotected scheme:
  // the mechanism is queueing, not PA, so it must hold for both.
  TopologyConfig config = storm_config();
  apply_mitigation(config, Mitigation::kNone);
  const auto unmitigated = run_topology_simulation(Scheme::kNone, config);
  apply_mitigation(config, Mitigation::kBreakerShed);
  const auto mitigated = run_topology_simulation(Scheme::kNone, config);

  ASSERT_GT(unmitigated.post_storm.arrivals, 0U);
  EXPECT_LE(unmitigated.post_storm.goodput * 100,
            unmitigated.post_storm.arrivals * 20);
  EXPECT_GE(mitigated.post_storm.goodput * 100,
            mitigated.post_storm.arrivals * 60);
  EXPECT_GE(mitigated.goodput, unmitigated.goodput + 40);
}

// --- determinism ----------------------------------------------------------

/// Runs `input` at 1 and at 3 threads, expects every field, the metrics and
/// the trace to match, and checks the accounting identities. Returns the
/// 1-thread result for input-specific checks.
TopologyResult expect_thread_count_invariant(const TopologyConfig& input) {
  const auto run = [&input](unsigned threads) {
    TopologyConfig config = input;
    config.threads = threads;
    config.collect_metrics = true;
    config.trace = true;
    return run_topology_simulation(Scheme::kPacStack, config);
  };
  const auto a = run(1);
  const auto b = run(3);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.crashed_attempts, b.crashed_attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_budget_denied, b.retry_budget_denied);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.breaker_probes, b.breaker_probes);
  EXPECT_EQ(a.forks, b.forks);
  EXPECT_EQ(a.attempts_simulated, b.attempts_simulated);
  EXPECT_EQ(a.cow_pages_copied, b.cow_pages_copied);
  EXPECT_EQ(a.backoff_cycles, b.backoff_cycles);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.gauge_samples, b.gauge_samples);
  EXPECT_EQ(a.latency.counts(), b.latency.counts());
  EXPECT_EQ(a.tiers.size(), b.tiers.size());
  for (std::size_t t = 0; t < a.tiers.size() && t < b.tiers.size(); ++t) {
    EXPECT_EQ(a.tiers[t].dispatched, b.tiers[t].dispatched);
    EXPECT_EQ(a.tiers[t].completed, b.tiers[t].completed);
    EXPECT_EQ(a.tiers[t].queue_depth_max, b.tiers[t].queue_depth_max);
    EXPECT_EQ(a.tiers[t].latency.counts(), b.tiers[t].latency.counts());
    EXPECT_EQ(a.tiers[t].queue_wait.counts(), b.tiers[t].queue_wait.counts());
  }
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.metrics, b.metrics);
  // The span/gauge timeline replays to the byte.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.trace_json.empty());

  EXPECT_EQ(a.completed + a.dropped + a.failed, a.requests);
  EXPECT_EQ(drop_sum(a), a.dropped + a.failed);
  EXPECT_EQ(a.pre_storm.arrivals + a.storm.arrivals + a.post_storm.arrivals,
            a.requests);
  return a;
}

TEST(Topology, ResultsAreThreadCountInvariant) {
  // Rate 0 takes clean-outcome reuse; a baseline rate reaches every
  // attempt, so each one is simulated.
  for (const double rate : {0.0, 50.0, 2000.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    TopologyConfig config = storm_config();
    apply_mitigation(config, Mitigation::kBreakerShed);
    config.requests = 120;
    config.hedge_after_cycles = 4'000;
    config.faults_per_million = rate;
    const auto a = expect_thread_count_invariant(config);
    // A baseline rate reaches attempts off the stormed tier too.
    if (rate >= 2000) {
      ASSERT_EQ(a.tiers.size(), 2U);
      EXPECT_GT(a.tiers[1].crashed_attempts, 0U);
    }
  }
}

// --- simulated attempts --------------------------------------------------

TEST(Topology, SimulatesNearlyOnlyTheAttemptsItDispatches) {
  // A fault-free attempt reuses its class's calibrated clean outcome, so a
  // storm-free config runs only calibration's two forks per class.
  const u64 calibration = 2 * default_service_classes().size();
  const auto clean = run_topology_simulation(Scheme::kPacStack, base_config());
  EXPECT_EQ(clean.attempts_simulated, calibration);
  EXPECT_EQ(clean.forks, base_config().requests * base_config().tiers);

  // Under a storm, only attempts dispatched on the stormed pool inside the
  // window are simulated: some, and never more than the stormed tier ran.
  TopologyConfig config = storm_config();
  for (const Mitigation arm : {Mitigation::kNone, Mitigation::kRetryBudget,
                               Mitigation::kBreakerShed}) {
    apply_mitigation(config, arm);
    const auto r = run_topology_simulation(Scheme::kPacStack, config);
    SCOPED_TRACE(mitigation_name(arm));
    ASSERT_GE(r.attempts_simulated, calibration);
    EXPECT_GT(r.attempts_simulated - calibration, 0U);
    EXPECT_LE(r.attempts_simulated - calibration,
              r.tiers[config.storm_tier].dispatched);
  }
}

// --- observability --------------------------------------------------------

TEST(Topology, TraceCarriesTierAndMitigationSpans) {
  TopologyConfig config = storm_config();
  apply_mitigation(config, Mitigation::kBreakerShed);
  config.breaker_window = 4;
  config.breaker_trip_permille = 750;
  // Aggressive shedding so the shed marker is guaranteed to appear even
  // with the breaker keeping queues shallow.
  config.shed_queue_permille = 100;
  config.low_priority_permille = 600;
  config.trace = true;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  ASSERT_FALSE(result.trace_json.empty());
  for (const char* needle :
       {"\"name\": \"request\"", "\"name\": \"tier\"",
        "\"name\": \"queued\"", "\"name\": \"executing\"",
        "\"name\": \"crashed\"", "\"name\": \"shed\"",
        "\"name\": \"breaker_trip\"", "\"name\": \"breaker_probe\"",
        "\"name\": \"deadline_miss\"",
        "\"name\": \"queue_depth\"", "\"name\": \"in_flight\"",
        "\"name\": \"breaker_open_pools\"",
        "\"process_name\""}) {
    EXPECT_NE(result.trace_json.find(needle), std::string::npos) << needle;
  }
  EXPECT_GT(result.gauge_samples, 0U);
}

TEST(Topology, MetricsExposeTheTopoCounters) {
  TopologyConfig config = storm_config();
  apply_mitigation(config, Mitigation::kBreakerShed);
  config.requests = 120;
  config.collect_metrics = true;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_EQ(result.metrics.counter("topo.requests"), result.requests);
  EXPECT_EQ(result.metrics.counter("topo.completed"), result.completed);
  EXPECT_EQ(result.metrics.counter("topo.goodput"), result.goodput);
  EXPECT_EQ(result.metrics.counter("topo.crashed_attempts"),
            result.crashed_attempts);
  EXPECT_EQ(result.metrics.counter("topo.retries"), result.retries);
  EXPECT_EQ(result.metrics.counter("topo.forks"), result.forks);
  EXPECT_EQ(result.metrics.counter("topo.drop.shed-low-priority"),
            result.drops.at("shed-low-priority"));
  EXPECT_GT(result.metrics.counter("obs.span.begin"), 0U);
}

// --- configuration errors -------------------------------------------------

TEST(Topology, DegenerateConfigsThrowLoudly) {
  const auto expect_throws = [](TopologyConfig config, const char* what) {
    EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
                 std::runtime_error)
        << what;
  };
  TopologyConfig config = base_config();
  config.tiers = 0;
  expect_throws(config, "tiers");
  config = base_config();
  config.pools_per_tier = 0;
  expect_throws(config, "pools");
  config = base_config();
  config.workers_per_pool = 0;
  expect_throws(config, "workers");
  config = base_config();
  config.requests = 0;
  expect_throws(config, "requests");
  config = base_config();
  config.load_percent = 0;
  expect_throws(config, "load");
  config = base_config();
  config.queue_capacity = 0;
  expect_throws(config, "queue");
  config = base_config();
  config.backoff_multiplier = 0;
  expect_throws(config, "multiplier");
  config = base_config();
  config.breaker_enabled = true;
  config.breaker_window = 0;
  expect_throws(config, "breaker window");
  config = storm_config();
  config.storm_tier = config.tiers;
  expect_throws(config, "storm tier");
  config = storm_config();
  config.storm_pool = config.pools_per_tier;
  expect_throws(config, "storm pool");
}

// --- the one-tier serving preset ----------------------------------------

TEST(Serving, FaultFreeRunCompletesEveryAdmittedRequest) {
  const auto result =
      run_topology_simulation(Scheme::kPacStack, one_tier_config());
  EXPECT_EQ(result.requests, 50U);
  EXPECT_EQ(result.completed + result.dropped, result.requests);
  EXPECT_EQ(result.failed, 0U);
  EXPECT_EQ(result.crashed_attempts, 0U);
  EXPECT_EQ(result.retries, 0U);
  // One CoW fork per admitted request when nothing crashes; only
  // calibration's forks are simulated.
  EXPECT_EQ(result.forks, result.completed);
  EXPECT_EQ(result.attempts_simulated,
            2 * default_service_classes().size());
  EXPECT_EQ(result.latency.count(), result.completed);
  EXPECT_EQ(result.tiers[0].queue_wait.count(), result.forks);
  EXPECT_GT(result.goodput_rps, 0.0);
  EXPECT_GT(result.mean_service_cycles, 0U);
  EXPECT_GT(result.mean_interarrival_cycles, 0U);
}

TEST(Serving, LatencyDominatesQueueWaitAndService) {
  // With one tier, tier residence is the whole request lifecycle: queue
  // wait plus attempt time, so it dominates the queue wait.
  const auto result =
      run_topology_simulation(Scheme::kPacStack, one_tier_config());
  EXPECT_EQ(result.latency.counts(), result.tiers[0].latency.counts());
  EXPECT_GE(result.latency.p50(), result.tiers[0].queue_wait.p50());
  EXPECT_GE(result.latency.p99(), result.tiers[0].queue_wait.p99());
  EXPECT_LE(result.latency.p50(), result.latency.p90());
  EXPECT_LE(result.latency.p90(), result.latency.p99());
  EXPECT_LE(result.latency.p99(), result.latency.p999());
}

TEST(Serving, SaturationWithTinyQueueRejects) {
  // 140% offered load into a 2-deep queue must trip admission control,
  // and dropped requests are not served or latency-sampled.
  TopologyConfig config = one_tier_config();
  config.workers_per_pool = 2;
  config.requests = 80;
  config.load_percent = 140;
  config.queue_capacity = 2;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.drops.at("queue-full"), 0U);
  EXPECT_EQ(result.completed + result.dropped, result.requests);
  EXPECT_EQ(result.latency.count(), result.completed);
  EXPECT_LE(result.tiers[0].queue_depth_max, 2U);
}

TEST(Serving, FaultsCauseRestartsAndStretchTheTail) {
  TopologyConfig config = one_tier_config();
  config.requests = 80;
  config.faults_per_million = 300;  // roughly one fault per few attempts
  config.backoff_initial_cycles = 10'000;
  const auto clean =
      run_topology_simulation(Scheme::kPacStack, one_tier_config());
  const auto faulted = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(faulted.crashed_attempts, 0U);
  EXPECT_GT(faulted.retries, 0U);
  EXPECT_GT(faulted.backoff_cycles, 0U);
  // Every retry is an extra fork beyond the per-request one.
  ASSERT_EQ(faulted.dropped, 0U);
  EXPECT_EQ(faulted.forks, faulted.requests + faulted.retries);
  // A retried request pays its backoff in latency: the faulted tail must
  // sit above the clean tail.
  EXPECT_GT(faulted.latency.p999(), clean.latency.p999());
}

TEST(Serving, ResultsAreThreadCountInvariant) {
  // The one-tier preset under a baseline rate, overloaded behind a short
  // queue, so crashes, retries and drops all replay.
  TopologyConfig config = one_tier_config();
  config.requests = 60;
  config.load_percent = 110;
  config.queue_capacity = 8;
  config.faults_per_million = 200;
  config.backoff_initial_cycles = 5'000;
  config.seed = 23;
  const auto a = expect_thread_count_invariant(config);
  EXPECT_GT(a.crashed_attempts, 0U);
}

TEST(Serving, TraceCarriesTheRequestLifecycleSpans) {
  TopologyConfig config = one_tier_config();
  config.requests = 40;
  config.load_percent = 130;
  config.queue_capacity = 3;
  config.faults_per_million = 300;
  config.backoff_initial_cycles = 5'000;
  config.trace = true;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  ASSERT_FALSE(result.trace_json.empty());
  // Async span begin/end with the request id propagated, plus the full
  // crash -> backoff -> restart chain and both counter tracks.
  for (const char* needle :
       {"\"name\": \"request\", \"cat\": \"request\", \"ph\": \"b\"",
        "\"name\": \"request\", \"cat\": \"request\", \"ph\": \"e\"",
        "\"name\": \"queued\"", "\"name\": \"executing\"",
        "\"name\": \"admitted\"", "\"name\": \"forked\"",
        "\"name\": \"completed\"", "\"name\": \"crashed\"",
        "\"name\": \"backoff\"", "\"name\": \"restarted\"",
        "\"name\": \"rejected\"",
        "\"name\": \"queue_depth\", \"cat\": \"serving\", \"ph\": \"C\"",
        "\"name\": \"in_flight\"", "\"id\": \"0x1\""}) {
    EXPECT_NE(result.trace_json.find(needle), std::string::npos) << needle;
  }
  EXPECT_GT(result.gauge_samples, 0U);
}

TEST(Serving, MetricsFoldSpanAndGaugeCounters) {
  TopologyConfig config = one_tier_config();
  config.collect_metrics = true;
  config.trace = true;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_EQ(result.metrics.counter("topo.forks"), result.forks);
  EXPECT_GT(result.metrics.counter("obs.span.begin"), 0U);
  // Queue depth, in-flight and the LB's open-breaker track per sample.
  EXPECT_EQ(result.metrics.counter("obs.gauge.sample"),
            result.gauge_samples * 3);
  EXPECT_EQ(result.metrics.histograms().at("topo.tier0.queue.depth").total(),
            result.gauge_samples);
}

TEST(Serving, ZeroWorkersOrRequestsThrow) {
  TopologyConfig config = one_tier_config();
  config.workers_per_pool = 0;
  EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
               std::runtime_error);
  config = one_tier_config();
  config.requests = 0;
  EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
               std::runtime_error);
}

TEST(Serving, ZeroLoadPercentThrows) {
  TopologyConfig config = one_tier_config();
  config.load_percent = 0;  // would divide by zero in calibration
  EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
               std::runtime_error);
}

TEST(Serving, DegenerateQueueAndBackoffConfigsThrowInsteadOfLyingQuietly) {
  // A zero-capacity queue would drop every arrival and publish all-zero
  // percentiles; a zero multiplier would silently become constant backoff.
  TopologyConfig config = one_tier_config();
  config.queue_capacity = 0;
  EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
               std::runtime_error);
  config = one_tier_config();
  config.backoff_multiplier = 0;
  EXPECT_THROW((void)run_topology_simulation(Scheme::kPacStack, config),
               std::runtime_error);
}

TEST(Serving, AbsurdBackoffLaddersSaturateInsteadOfWrapping) {
  // Regression: initial * multiplier^retries overflows u64 after a few
  // dozen retries; the accumulated backoff cycles used to wrap.
  TopologyConfig config = one_tier_config();
  config.requests = 60;
  config.faults_per_million = 400;
  config.backoff_initial_cycles = ~u64{0} / 2;
  config.backoff_multiplier = 1000;
  const auto result = run_topology_simulation(Scheme::kPacStack, config);
  EXPECT_GT(result.crashed_attempts, 0U);
  EXPECT_GT(result.retries, 0U);
  // Every backoff saturated at the cap, so the sum is exactly explainable
  // and far below the wrap point.
  EXPECT_EQ(result.backoff_cycles, result.retries * config.backoff_cap_cycles);
}

}  // namespace
}  // namespace acs::workload
