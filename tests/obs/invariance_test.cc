// Thread-invariance of the observability output: the metrics shard, the
// folded profile and the (slot-0-only) trace of a Table 3 worker fleet
// (fault-free, fail-fast) must be BITWISE identical for every --threads
// value. This is the obs extension of the determinism contract in
// src/exec/parallel.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/fleet.h"

namespace acs {
namespace {

struct Observed {
  workload::NginxObs obs;
  double tps = 0;
};

Observed run(unsigned threads) {
  workload::FleetConfig config;
  config.workers = 2;
  config.requests_per_worker = 10;
  config.repeats = 2;
  config.seed = 1234;
  config.threads = threads;
  config.collect_metrics = true;
  config.collect_profile = true;
  config.trace_first_trial = true;
  Observed out;
  const auto result = workload::run_worker_fleet(
      compiler::Scheme::kPacStack, config, &out.obs);
  out.tps = result.requests_per_second;
  return out;
}

TEST(ObsThreadInvarianceTest, MetricsProfileAndTraceAreBitwiseIdentical) {
  const Observed t1 = run(1);
  ASSERT_FALSE(t1.obs.metrics.empty());
  ASSERT_FALSE(t1.obs.profile.empty());
  ASSERT_FALSE(t1.obs.trace_json.empty());

  for (const unsigned threads : {2u, 8u}) {
    const Observed tn = run(threads);
    // Structured equality AND serialised equality: the JSON/folded bytes
    // that reach BENCH_*.json must match, not just the numeric content.
    EXPECT_EQ(t1.obs.metrics, tn.obs.metrics) << "threads=" << threads;
    EXPECT_EQ(t1.obs.metrics.to_json(), tn.obs.metrics.to_json())
        << "threads=" << threads;
    EXPECT_EQ(t1.obs.profile, tn.obs.profile) << "threads=" << threads;
    EXPECT_EQ(t1.obs.profile.folded(), tn.obs.profile.folded())
        << "threads=" << threads;
    EXPECT_EQ(t1.obs.trace_json, tn.obs.trace_json) << "threads=" << threads;
    EXPECT_EQ(t1.tps, tn.tps) << "threads=" << threads;
  }
}

TEST(ObsThreadInvarianceTest, MetricsCoverTheWholeCampaign) {
  const Observed t1 = run(1);
  // 2 workers x 2 repeats, 10 requests each, under pacstack: every call
  // in every slot contributes — far more than one worker alone could.
  EXPECT_GT(t1.obs.metrics.counter("chain.push"), 0u);
  EXPECT_GT(t1.obs.metrics.counter("pa.sign"),
            t1.obs.metrics.counter("chain.push") / 2);
  EXPECT_GT(t1.obs.metrics.counter("sim.cycles"), 0u);
  EXPECT_EQ(t1.obs.metrics.counter("chain.pop.fail"), 0u);
  EXPECT_EQ(t1.obs.metrics.counter("pa.auth.fail"), 0u);
}

TEST(ObsThreadInvarianceTest, ObsCollectionDoesNotPerturbResults) {
  workload::FleetConfig config;
  config.workers = 2;
  config.requests_per_worker = 10;
  config.repeats = 2;
  config.seed = 1234;

  const auto plain =
      workload::run_worker_fleet(compiler::Scheme::kPacStack, config);

  config.collect_metrics = true;
  config.collect_profile = true;
  config.trace_first_trial = true;
  workload::NginxObs obs;
  const auto observed = workload::run_worker_fleet(
      compiler::Scheme::kPacStack, config, &obs);

  // Attaching the recorder must not change the simulation itself.
  EXPECT_EQ(plain.requests_per_second, observed.requests_per_second);
  EXPECT_EQ(plain.stddev, observed.stddev);
  EXPECT_EQ(plain.completed_requests, observed.completed_requests);
}

}  // namespace
}  // namespace acs
