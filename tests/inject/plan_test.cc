#include "inject/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

namespace acs::inject {
namespace {

TEST(Plan, FaultKindNamesAreDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    const char* name = fault_kind_name(static_cast<FaultKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
}

TEST(Plan, CpuKernelPartition) {
  EXPECT_TRUE(is_cpu_level(FaultKind::kRetSlotBitflip));
  EXPECT_TRUE(is_cpu_level(FaultKind::kChainCorrupt));
  EXPECT_TRUE(is_cpu_level(FaultKind::kInstrSkip));
  EXPECT_FALSE(is_cpu_level(FaultKind::kKeyPerturb));
  EXPECT_FALSE(is_cpu_level(FaultKind::kSigFrameTrash));
  EXPECT_FALSE(is_cpu_level(FaultKind::kBudgetExhaust));
  EXPECT_TRUE(is_cpu_level(FaultKind::kStoreWord));
}

TEST(Plan, ZeroMeanIntervalMeansNoFaults) {
  PlanConfig config;
  config.mean_interval = 0;
  EXPECT_TRUE(make_plan(config).empty());
}

TEST(Plan, IsAPureFunctionOfTheConfig) {
  PlanConfig config;
  config.seed = 7;
  config.horizon = 100'000;
  config.mean_interval = 500;
  const auto a = make_plan(config);
  const auto b = make_plan(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_instr, b[i].at_instr);
    EXPECT_EQ(a[i].min_depth, b[i].min_depth);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }

  config.seed = 8;
  const auto c = make_plan(config);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_instr != c[i].at_instr || a[i].payload != c[i].payload;
  }
  EXPECT_TRUE(differs) << "different seeds produced an identical plan";
}

TEST(Plan, RespectsHorizonOrderingAndDensity) {
  PlanConfig config;
  config.seed = 42;
  config.horizon = 1'000'000;
  config.mean_interval = 1000;
  const auto plan = make_plan(config);
  // Renewal process with inter-arrival uniform in [1, 2*mean]: expect
  // horizon/mean faults up to noise.
  EXPECT_GT(plan.size(), 700U);
  EXPECT_LT(plan.size(), 1400U);
  u64 prev = 0;
  for (const PlannedFault& fault : plan) {
    EXPECT_LE(prev, fault.at_instr);
    EXPECT_LT(fault.at_instr, config.horizon);
    EXPECT_LT(fault.min_depth, config.max_depth);
    prev = fault.at_instr;
  }
}

TEST(Plan, RestrictsKindsWhenAsked) {
  PlanConfig config;
  config.seed = 3;
  config.horizon = 50'000;
  config.mean_interval = 200;
  config.kinds = {FaultKind::kInstrSkip, FaultKind::kKeyPerturb};
  std::set<FaultKind> seen;
  for (const PlannedFault& fault : make_plan(config)) seen.insert(fault.kind);
  EXPECT_LE(seen.size(), 2U);
  for (const FaultKind kind : seen) {
    EXPECT_TRUE(kind == FaultKind::kInstrSkip ||
                kind == FaultKind::kKeyPerturb);
  }
  // With the full draw set allowed and this many draws, every plannable
  // kind shows up — and kStoreWord never does (it needs a concrete target,
  // so make_plan never draws it; witness replay builds it by hand).
  config.kinds.clear();
  seen.clear();
  for (const PlannedFault& fault : make_plan(config)) seen.insert(fault.kind);
  EXPECT_EQ(seen.size(), kNumPlannableKinds);
  EXPECT_FALSE(seen.contains(FaultKind::kStoreWord));
}

// --- correlated bursts ----------------------------------------------------

TEST(Plan, DisabledBurstLeavesBaselinePlansBitIdentical) {
  // The burst draw happens after the baseline draw on the same stream, so
  // turning the burst off must reproduce older plans exactly — every
  // pinned fault campaign in the suite depends on this.
  PlanConfig baseline;
  baseline.seed = 42;
  baseline.horizon = 1'000'000;
  baseline.mean_interval = 1000;
  PlanConfig off = baseline;
  off.burst_start = 100'000;
  off.burst_len = 0;  // off
  off.burst_mean_interval = 50;
  const auto a = make_plan(baseline);
  const auto b = make_plan(off);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_instr, b[i].at_instr);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(Plan, BurstConcentratesFaultsInsideItsWindow) {
  PlanConfig config;
  config.seed = 9;
  config.horizon = 1'000'000;
  config.mean_interval = 10'000;  // sparse baseline: ~100 faults
  config.burst_start = 400'000;
  config.burst_len = 100'000;
  config.burst_mean_interval = 500;  // dense burst: ~200 faults
  const auto plan = make_plan(config);
  u64 inside = 0, outside = 0, prev = 0;
  for (const PlannedFault& fault : plan) {
    EXPECT_LE(prev, fault.at_instr);  // merged plan stays sorted
    EXPECT_LT(fault.at_instr, config.horizon);
    prev = fault.at_instr;
    if (fault.at_instr >= 400'000 && fault.at_instr < 500'000) {
      ++inside;
    } else {
      ++outside;
    }
  }
  // ~210 faults inside the 10% window vs ~90 outside.
  EXPECT_GT(inside, 150U);
  EXPECT_LT(outside, 130U);
  EXPECT_GT(inside, outside);
}

TEST(Plan, BurstAloneWorksWithoutABaselineProcess) {
  PlanConfig config;
  config.seed = 5;
  config.horizon = 200'000;
  config.mean_interval = 0;  // no baseline faults at all
  config.burst_start = 50'000;
  config.burst_len = 20'000;
  config.burst_mean_interval = 100;
  const auto plan = make_plan(config);
  EXPECT_GT(plan.size(), 120U);
  for (const PlannedFault& fault : plan) {
    EXPECT_GE(fault.at_instr, 50'000U);
    EXPECT_LT(fault.at_instr, 70'000U);
  }
}

TEST(Plan, BurstWindowIsClampedToTheHorizon) {
  PlanConfig config;
  config.seed = 6;
  config.horizon = 100'000;
  config.burst_start = 90'000;
  config.burst_len = ~u64{0};  // would overflow burst_start + burst_len
  config.burst_mean_interval = 100;
  const auto plan = make_plan(config);
  EXPECT_FALSE(plan.empty());
  for (const PlannedFault& fault : plan) {
    EXPECT_GE(fault.at_instr, 90'000U);
    EXPECT_LT(fault.at_instr, config.horizon);
  }
  // A burst starting at or past the horizon contributes nothing.
  config.burst_start = 100'000;
  EXPECT_TRUE(make_plan(config).empty());
}

// --- lazy cursor ------------------------------------------------------------

/// make_plan as it stood before PlanCursor (eager), kept verbatim as
/// the oracle: every seeded campaign is pinned to exactly this RNG order.
void reference_renewal(const PlanConfig& config, Rng& rng, u64 begin, u64 end,
                       u64 mean_interval, std::vector<PlannedFault>& plan) {
  static constexpr FaultKind kAllKinds[] = {
      FaultKind::kRetSlotBitflip, FaultKind::kChainCorrupt,
      FaultKind::kInstrSkip,      FaultKind::kKeyPerturb,
      FaultKind::kSigFrameTrash,  FaultKind::kBudgetExhaust,
  };
  u64 t = begin;
  for (;;) {
    t += 1 + rng.next_below(2 * mean_interval);
    if (t >= end) break;
    PlannedFault fault;
    fault.at_instr = t;
    fault.kind = config.kinds.empty()
                     ? kAllKinds[rng.next_below(kNumPlannableKinds)]
                     : config.kinds[rng.next_below(config.kinds.size())];
    fault.min_depth =
        config.max_depth == 0 ? 0 : rng.next_below(config.max_depth);
    fault.payload = rng.next();
    plan.push_back(fault);
  }
}

std::vector<PlannedFault> reference_plan(const PlanConfig& config) {
  std::vector<PlannedFault> plan;
  if (config.horizon == 0) return plan;
  Rng rng(config.seed);
  if (config.mean_interval != 0) {
    reference_renewal(config, rng, 0, config.horizon, config.mean_interval,
                      plan);
  }
  if (config.burst_len != 0 && config.burst_mean_interval != 0 &&
      config.burst_start < config.horizon) {
    const u64 burst_end =
        config.horizon - config.burst_start > config.burst_len
            ? config.burst_start + config.burst_len
            : config.horizon;
    const std::size_t baseline_count = plan.size();
    reference_renewal(config, rng, config.burst_start, burst_end,
                      config.burst_mean_interval, plan);
    std::inplace_merge(
        plan.begin(),
        plan.begin() + static_cast<std::ptrdiff_t>(baseline_count),
        plan.end(), [](const PlannedFault& a, const PlannedFault& b) {
          return a.at_instr < b.at_instr;
        });
  }
  return plan;
}

void expect_same_faults(const std::vector<PlannedFault>& a,
                        const std::vector<PlannedFault>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_instr, b[i].at_instr) << "fault " << i;
    EXPECT_EQ(a[i].min_depth, b[i].min_depth) << "fault " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "fault " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << "fault " << i;
    EXPECT_EQ(a[i].at_pc, b[i].at_pc) << "fault " << i;
    EXPECT_EQ(a[i].occurrence, b[i].occurrence) << "fault " << i;
    EXPECT_EQ(a[i].addr, b[i].addr) << "fault " << i;
    EXPECT_EQ(a[i].sp_rel, b[i].sp_rel) << "fault " << i;
  }
}

std::vector<PlannedFault> drain(PlanCursor cursor) {
  std::vector<PlannedFault> out;
  for (PlannedFault fault; cursor.next(fault);) out.push_back(fault);
  return out;
}

/// A random plan config: horizon sometimes 0, each process on or off, and
/// the kind set empty, kernel-only, CPU-only or mixed.
PlanConfig random_config(Rng& rng) {
  static const std::vector<FaultKind> kKindSets[] = {
      {},
      {FaultKind::kBudgetExhaust},
      {FaultKind::kKeyPerturb, FaultKind::kSigFrameTrash},
      {FaultKind::kInstrSkip},
      {FaultKind::kRetSlotBitflip, FaultKind::kChainCorrupt},
      {FaultKind::kInstrSkip, FaultKind::kBudgetExhaust,
       FaultKind::kChainCorrupt},
  };
  PlanConfig config;
  config.seed = rng.next();
  config.horizon = rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(50'000);
  config.mean_interval = rng.next_below(3) == 0 ? 0 : 1 + rng.next_below(400);
  config.max_depth = rng.next_below(6);
  config.kinds = kKindSets[rng.next_below(std::size(kKindSets))];
  if (rng.next_below(2) == 0) {
    config.burst_start = rng.next_below(config.horizon + 1);
    config.burst_len = rng.next_below(4) == 0 ? ~u64{0}
                                              : rng.next_below(30'000);
    config.burst_mean_interval = rng.next_below(4) == 0
                                     ? 0
                                     : 1 + rng.next_below(100);
  }
  return config;
}

TEST(PlanCursor, DrainedEqualsMakePlanOnRandomConfigs) {
  Rng rng(2024);
  unsigned single = 0, two = 0;
  for (int i = 0; i < 400; ++i) {
    const PlanConfig config = random_config(rng);
    const std::vector<PlannedFault> expected = reference_plan(config);
    expect_same_faults(make_plan(config), expected);
    PlanCursor cursor(config);
    if (cursor.two_stream()) {
      ++two;
    } else {
      // A single stream comes out of the cursor already in time order:
      // draw order is delivery order.
      ++single;
      expect_same_faults(drain(std::move(cursor)), expected);
    }
    if (HasFailure()) {
      FAIL() << "config " << i << ": seed " << config.seed << " horizon "
             << config.horizon << " mean " << config.mean_interval
             << " burst " << config.burst_start << "+" << config.burst_len
             << "/" << config.burst_mean_interval;
    }
  }
  EXPECT_GT(single, 100U);  // both shapes were exercised
  EXPECT_GT(two, 50U);
}

TEST(PlanCursor, SingleStreamShapes) {
  PlanConfig config;
  config.seed = 11;
  config.horizon = 20'000;
  config.mean_interval = 100;
  EXPECT_FALSE(PlanCursor(config).two_stream());  // baseline only
  config.burst_len = 5'000;
  config.burst_mean_interval = 10;
  EXPECT_TRUE(PlanCursor(config).two_stream());
  config.mean_interval = 0;
  EXPECT_FALSE(PlanCursor(config).two_stream());  // burst only
  expect_same_faults(drain(PlanCursor(config)), reference_plan(config));
  config.horizon = 0;
  EXPECT_TRUE(drain(PlanCursor(config)).empty());
}

TEST(PlanCursor, MayYieldFollowsTheKindSet) {
  PlanConfig config;
  EXPECT_TRUE(PlanCursor(config).may_yield(/*cpu_level=*/true));
  EXPECT_TRUE(PlanCursor(config).may_yield(/*cpu_level=*/false));
  config.kinds = {FaultKind::kBudgetExhaust};
  EXPECT_FALSE(PlanCursor(config).may_yield(/*cpu_level=*/true));
  EXPECT_TRUE(PlanCursor(config).may_yield(/*cpu_level=*/false));
  config.kinds = {FaultKind::kInstrSkip, FaultKind::kChainCorrupt};
  EXPECT_TRUE(PlanCursor(config).may_yield(/*cpu_level=*/true));
  EXPECT_FALSE(PlanCursor(config).may_yield(/*cpu_level=*/false));
}

}  // namespace
}  // namespace acs::inject
