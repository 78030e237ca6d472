#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "kernel/machine.h"
#include "workload/callgraph_gen.h"
#include "workload/confirm_suite.h"
#include "workload/measure.h"
#include "workload/fleet.h"
#include "workload/nginx_sim.h"
#include "workload/spec_suite.h"

namespace acs::workload {
namespace {

using compiler::Scheme;

TEST(SpecSuite, HasRateAndSpeedVariants) {
  const auto& suite = spec_suite();
  EXPECT_EQ(suite.size(), 16U);
  std::size_t rate = 0, speed = 0;
  std::set<std::string> names;
  for (const auto& bench : suite) {
    (bench.speed ? speed : rate) += 1;
    names.insert(bench.name);
    EXPECT_GT(bench.iterations, 0U);
    EXPECT_GT(bench.work_mid, 0U);
  }
  EXPECT_EQ(rate, 8U);
  EXPECT_EQ(speed, 8U);
  EXPECT_EQ(names.size(), suite.size());  // unique names
}

TEST(SpecSuite, WorkloadsRunCleanly) {
  // A shrunk copy of one benchmark under every scheme.
  SpecBenchmark small = spec_suite().front();
  small.iterations = 50;
  const auto ir = make_spec_ir(small);
  for (Scheme scheme : compiler::all_schemes()) {
    const auto metrics = run_and_measure(ir, scheme);
    EXPECT_TRUE(metrics.clean_exit) << scheme_name(scheme);
    EXPECT_GT(metrics.cycles, 0U);
  }
}

TEST(SpecSuite, OverheadOrderingMatchesTable2) {
  // The paper's Table 2 ordering: canary < pac-ret < shadow-stack ~
  // pacstack-nomask < pacstack, for a call-dense benchmark.
  SpecBenchmark dense = spec_suite().front();  // perlbench-like
  dense.iterations = 400;
  const auto ir = make_spec_ir(dense);
  const double canary = overhead_percent(ir, Scheme::kCanary);
  const double pacret = overhead_percent(ir, Scheme::kPacRet);
  const double shadow = overhead_percent(ir, Scheme::kShadowStack);
  const double nomask = overhead_percent(ir, Scheme::kPacStackNoMask);
  const double full = overhead_percent(ir, Scheme::kPacStack);
  EXPECT_LT(pacret, shadow);
  EXPECT_LE(shadow, nomask);
  EXPECT_LT(nomask, full);
  EXPECT_GT(full, 0.0);
  // Canary fires only on buffered functions; it must be far below full.
  EXPECT_LT(canary, full / 2);
}

TEST(SpecSuite, CallDensityDrivesOverhead) {
  // Section 7.1: overhead is proportional to call frequency — the
  // lbm-like benchmark must show much less overhead than perlbench-like.
  SpecBenchmark dense = spec_suite()[0];   // perlbench_r
  dense.iterations = 300;
  SpecBenchmark sparse = spec_suite()[3];  // lbm_r
  sparse.iterations = 30;
  const double dense_ovh = overhead_percent(make_spec_ir(dense),
                                            Scheme::kPacStack);
  const double sparse_ovh = overhead_percent(make_spec_ir(sparse),
                                             Scheme::kPacStack);
  EXPECT_GT(dense_ovh, 5 * sparse_ovh);
}

TEST(SpecCppSuite, WorkloadsRunCleanlyUnderEveryScheme) {
  SpecBenchmark small = spec_cpp_suite().front();
  small.iterations = 40;
  const auto ir = make_spec_cpp_ir(small);
  for (Scheme scheme : compiler::all_schemes()) {
    const auto metrics = run_and_measure(ir, scheme);
    EXPECT_TRUE(metrics.clean_exit) << scheme_name(scheme);
  }
}

TEST(SpecCppSuite, HasFiveBenchmarks) {
  EXPECT_EQ(spec_cpp_suite().size(), 5U);
}

TEST(SpecCppSuite, ExceptionPathLogsCaughtValue) {
  SpecBenchmark small = spec_cpp_suite().front();
  small.iterations = 5;
  const auto ir = make_spec_cpp_ir(small);
  const auto program =
      compiler::compile_ir(ir, {.scheme = Scheme::kPacStack});
  kernel::Machine machine(program);
  machine.run();
  // Completion marker 1 plus the caught exception value 2.
  EXPECT_EQ(machine.init_process().output, (std::vector<u64>{1, 2}));
}

TEST(Nginx, WorkerRunsCleanly) {
  const auto ir = make_worker_ir(20, 3);
  for (Scheme scheme : {Scheme::kNone, Scheme::kPacStack}) {
    const auto metrics = run_and_measure(ir, scheme);
    EXPECT_TRUE(metrics.clean_exit) << scheme_name(scheme);
  }
}

TEST(Nginx, InstrumentationCostsThroughput) {
  // Table 3's engine: a fault-free fleet under the default fail-fast policy.
  FleetConfig config;
  config.workers = 2;
  config.requests_per_worker = 40;
  config.repeats = 3;
  const auto base = run_worker_fleet(Scheme::kNone, config);
  const auto full = run_worker_fleet(Scheme::kPacStack, config);
  const auto nomask = run_worker_fleet(Scheme::kPacStackNoMask, config);
  EXPECT_GT(base.requests_per_second, full.requests_per_second);
  EXPECT_GE(nomask.requests_per_second, full.requests_per_second);
  EXPECT_GT(full.requests_per_second, 0.0);
}

TEST(Nginx, MoreWorkersMoreThroughput) {
  FleetConfig four;
  four.workers = 4;
  four.requests_per_worker = 30;
  four.repeats = 2;
  FleetConfig eight = four;
  eight.workers = 8;
  const auto tps4 = run_worker_fleet(Scheme::kNone, four);
  const auto tps8 = run_worker_fleet(Scheme::kNone, eight);
  // Independent CPU-bound workers: ~2x (Table 3 shows 14.2k -> 30.7k).
  EXPECT_NEAR(tps8.requests_per_second / tps4.requests_per_second, 2.0, 0.3);
}

TEST(Confirm, SuiteHasAtLeastElevenTests) {
  // Section 7.3: 11 of the 18 Linux ConFIRM tests apply on AArch64.
  EXPECT_GE(confirm_suite().size(), 11U);
}

TEST(Confirm, AllPassWithoutInstrumentation) {
  for (const auto& test : confirm_suite()) {
    const auto outcome = run_confirm_test(test, Scheme::kNone);
    EXPECT_TRUE(outcome.passed) << test.name << ": " << outcome.detail;
  }
}

TEST(CallGraphGen, GeneratesValidPrograms) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const auto ir = make_random_ir(rng);
    EXPECT_FALSE(ir.functions.empty());
    const auto metrics = run_and_measure(ir, Scheme::kNone, 1 + i);
    EXPECT_TRUE(metrics.clean_exit) << "graph " << i;
  }
}

}  // namespace
}  // namespace acs::workload
