#include "attack/experiments.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/chain.h"
#include "crypto/keys.h"
#include "exec/parallel.h"
#include "pa/pointer_auth.h"
#include "pa/va_layout.h"

namespace acs::attack {

namespace {

/// PA engine with a b-bit PAC (the paper's 16-bit default corresponds to
/// VA_SIZE = 39; smaller b models a larger VA_SIZE). The SipHash backend is
/// stateless, so one engine is safely shared (read-only) by every trial
/// thread of a campaign.
[[nodiscard]] pa::PointerAuth make_pauth(unsigned b, Rng& rng) {
  const pa::VaLayout layout{55U - b};
  return pa::PointerAuth{crypto::random_key_set(rng), layout};
}

/// A plausible canonical "code address" for the layout.
[[nodiscard]] u64 random_code_address(const pa::VaLayout& layout, Rng& rng) {
  return layout.address_bits(rng.next()) | 0x1000;
}

[[nodiscard]] MonteCarloResult to_result(const exec::TrialAccumulator& acc) {
  return {.trials = acc.trials(),
          .successes = acc.successes(),
          .chain_ops = acc.ops()};
}

/// The random inputs of one harvested path: its predecessor prev_j is the
/// aret chaining `ret` over `nonce`.
struct PathInput {
  u64 nonce = 0;
  u64 ret = 0;
};

/// Draws `harvest` paths' inputs in the campaigns' fixed RNG order: each
/// path's nonce, then its return address.
[[nodiscard]] std::vector<PathInput> draw_paths(const pa::VaLayout& layout,
                                                Rng& rng, u64 harvest) {
  std::vector<PathInput> paths(harvest);
  for (PathInput& path : paths) {
    path.nonce = rng.next();
    path.ret = random_code_address(layout, rng);
  }
  return paths;
}

/// The collision search of the unmasked and deep-harvest attacks. Walks
/// the paths in order, MACing path j's predecessor and observed aret only
/// when the walk reaches it, and stops at the first exploitable collision:
/// `key(observed_j)` equals the key of the first earlier path holding it,
/// that path's predecessor differs from prev_j, and prev_j verifies under
/// that path's observed aret. `ops` counts the chain operations made.
template <typename Key>
[[nodiscard]] bool first_exploitable_collision(
    const core::AcsChain& chain, u64 ret_c, const std::vector<PathInput>& paths,
    Key key, u64& ops) {
  struct Harvested {
    u64 prev;
    u64 observed;
  };
  std::unordered_map<u64, Harvested> first;
  first.reserve(paths.size());
  for (const PathInput& path : paths) {
    const u64 prev = chain.compute_aret(path.ret, path.nonce);
    const u64 observed = chain.compute_aret(ret_c, prev);
    ops += 2;
    const auto [it, inserted] =
        first.try_emplace(key(observed), Harvested{prev, observed});
    if (!inserted && it->second.prev != prev) {
      ++ops;
      if (chain.verify(it->second.observed, prev)) return true;
    }
  }
  return false;
}

/// Mean/stddev over per-trial counts (sample stddev, n-1 denominator),
/// reduced sequentially in trial order so the result is independent of the
/// thread count that produced `counts`.
[[nodiscard]] GuessStats finish_stats(const std::vector<u64>& counts) {
  GuessStats stats;
  stats.trials = counts.size();
  double sum = 0;
  for (u64 c : counts) sum += static_cast<double>(c);
  stats.mean_guesses = sum / static_cast<double>(counts.size());
  double ss = 0;
  for (u64 c : counts) {
    const double d = static_cast<double>(c) - stats.mean_guesses;
    ss += d * d;
  }
  stats.stddev_guesses =
      counts.size() > 1
          ? std::sqrt(ss / static_cast<double>(counts.size() - 1))
          : 0.0;
  return stats;
}

}  // namespace

MonteCarloResult on_graph_attack(unsigned b, bool masking, u64 harvest,
                                 u64 trials, u64 seed, unsigned threads) {
  if (masking && harvest < 2) {
    throw std::invalid_argument(
        "on_graph_attack: a masked campaign needs harvest >= 2 (the live "
        "path plus one substitute)");
  }
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const core::AcsChain chain{pauth, masking};
  const auto& layout = pauth.layout();

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        // `harvest` distinct execution paths arriving at the victim call
        // site with return address ret_c; the adversary sees the aret the
        // callee stores for each path (observed_j = aret chaining ret_c
        // onto prev_j).
        const u64 ret_c = random_code_address(layout, rng);
        const auto paths = draw_paths(layout, rng, harvest);
        u64 ops = 0;
        bool success = false;
        if (!masking) {
          // Unmasked auth tokens are directly comparable: find ANY colliding
          // pair (i, j), then steer execution down path i and substitute
          // prev_j for prev_i on the stack. By Eq. (1) the substitution
          // always verifies.
          success = first_exploitable_collision(
              chain, ret_c, paths,
              [&](u64 observed) { return layout.pac_field(observed); }, ops);
        } else {
          // Masked tokens are indistinguishable (Theorem 1): the best
          // available strategy is substituting a uniformly chosen harvested
          // predecessor under the live path (path 0). Only paths 0 and j
          // are ever read, so only they are MACed.
          const u64 j = 1 + rng.next_below(harvest - 1);
          const u64 prev_0 = chain.compute_aret(paths[0].ret, paths[0].nonce);
          const u64 prev_j = chain.compute_aret(paths[j].ret, paths[j].nonce);
          ops = 2;
          if (prev_j != prev_0) {
            ops += 2;
            success = chain.verify(chain.compute_aret(ret_c, prev_0), prev_j);
          }
        }
        acc.add_outcome(success);
        acc.add_ops(ops);
      },
      threads);
  return to_result(merged);
}

MonteCarloResult on_graph_attack_deep_harvest(unsigned b, u64 harvest,
                                              u64 trials, u64 seed,
                                              unsigned threads) {
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const core::AcsChain chain{pauth, /*masking=*/true};
  const auto& layout = pauth.layout();

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        const u64 ret_c = random_code_address(layout, rng);
        const auto paths = draw_paths(layout, rng, harvest);
        // observed_j is the chain-register value chaining ret_C over
        // prev_j — i.e. the *masked token* — which lands on the stack at
        // level n+1 when the callee calls deeper. The masked tokens are
        // directly comparable as stored words: any full-value collision
        // between distinct paths is exploitable.
        u64 ops = 0;
        acc.add_outcome(first_exploitable_collision(
            chain, ret_c, paths, [](u64 observed) { return observed; }, ops));
        acc.add_ops(ops);
      },
      threads);
  return to_result(merged);
}

MonteCarloResult off_graph_to_call_site(unsigned b, bool masking, u64 trials,
                                        u64 seed, unsigned threads) {
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const core::AcsChain chain{pauth, masking};
  const auto& layout = pauth.layout();

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        // Live state: CR authenticates ret_c over prev_a.
        const u64 ret_c = random_code_address(layout, rng);
        const u64 nonce_a = rng.next();
        const u64 prev_a =
            chain.compute_aret(random_code_address(layout, rng), nonce_a);
        const u64 cr = chain.compute_aret(ret_c, prev_a);
        // The adversary substitutes a *valid* aret_b harvested from an
        // unrelated chain; H(ret_c, aret_b) was never computed, so AG-Load
        // is a fresh 2^-b event. AG-Jump then succeeds for free (aret_b is
        // valid).
        const u64 nonce_b = rng.next();
        const u64 aret_b =
            chain.compute_aret(random_code_address(layout, rng), nonce_b);
        const bool differs = aret_b != prev_a;
        acc.add_outcome(differs && chain.verify(cr, aret_b));
        acc.add_ops(differs ? 4 : 3);
      },
      threads);
  return to_result(merged);
}

MonteCarloResult off_graph_arbitrary(unsigned b, bool masking, u64 trials,
                                     u64 seed, unsigned threads) {
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const core::AcsChain chain{pauth, masking};
  const auto& layout = pauth.layout();

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        const u64 ret_c = random_code_address(layout, rng);
        const u64 nonce_a = rng.next();
        const u64 prev_a =
            chain.compute_aret(random_code_address(layout, rng), nonce_a);
        const u64 cr = chain.compute_aret(ret_c, prev_a);
        // Fully fabricated aret_b: attacker-chosen target address and a
        // guessed auth token — plus a fabricated predecessor for the
        // follow-up return.
        const u64 target = random_code_address(layout, rng);
        const u64 aret_b =
            layout.with_pac(target, rng.next_below(u64{1} << layout.pac_bits()));
        const u64 prev_b = rng.next();
        // AG-Load: the loader's verification must accept aret_b.
        // AG-Jump: returning through aret_b must verify against prev_b.
        const bool loaded = chain.verify(cr, aret_b);
        acc.add_outcome(loaded && chain.verify(aret_b, prev_b));
        acc.add_ops(loaded ? 4 : 3);
      },
      threads);
  return to_result(merged);
}

CollisionStats tokens_to_collision(unsigned b, u64 trials, u64 seed,
                                   unsigned threads) {
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const auto& layout = pauth.layout();

  const auto counts = exec::parallel_map_trials<u64>(
      trials, seed,
      [&](u64, u64 trial_seed) {
        Rng rng(trial_seed);
        std::unordered_set<u64> seen;
        const u64 ret_c = random_code_address(layout, rng);
        u64 count = 0;
        for (;;) {
          ++count;
          const u64 tag =
              pauth.expected_pac(crypto::KeyId::kIA, ret_c, rng.next());
          if (!seen.insert(tag).second) break;
        }
        return count;
      },
      threads);

  double sum = 0;
  double sum_sq = 0;
  for (u64 count : counts) {
    sum += static_cast<double>(count);
    sum_sq += static_cast<double>(count) * static_cast<double>(count);
  }
  CollisionStats stats;
  stats.trials = trials;
  stats.mean_tokens = sum / static_cast<double>(trials);
  const double var = sum_sq / static_cast<double>(trials) -
                     stats.mean_tokens * stats.mean_tokens;
  stats.stddev_tokens = var > 0 ? std::sqrt(var) : 0.0;
  return stats;
}

MonteCarloResult collision_within(unsigned b, u64 q, u64 trials, u64 seed,
                                  unsigned threads) {
  Rng setup_rng(seed);
  const auto pauth = make_pauth(b, setup_rng);
  const auto& layout = pauth.layout();

  const auto merged = exec::parallel_trials(
      trials, seed,
      [&](u64, u64 trial_seed, exec::TrialAccumulator& acc) {
        Rng rng(trial_seed);
        std::unordered_set<u64> seen;
        seen.reserve(q);
        const u64 ret_c = random_code_address(layout, rng);
        bool collided = false;
        for (u64 i = 0; i < q && !collided; ++i) {
          const u64 tag =
              pauth.expected_pac(crypto::KeyId::kIA, ret_c, rng.next());
          collided = !seen.insert(tag).second;
        }
        acc.add_outcome(collided);
      },
      threads);
  return to_result(merged);
}

GuessStats bruteforce_fresh_key(unsigned b, u64 trials, u64 seed,
                                unsigned threads) {
  const pa::VaLayout layout{55U - b};
  const u64 target_ret = layout.address_bits(0xbadd00d) | 0x1000;
  const auto counts = exec::parallel_map_trials<u64>(
      trials, seed,
      [&](u64, u64 trial_seed) {
        Rng rng(trial_seed);
        u64 guesses = 0;
        for (;;) {
          ++guesses;
          // Every failed guess crashes the process; the kernel generates a
          // new key on the restart's exec, so each guess faces a fresh H_k.
          const crypto::SipMac mac{crypto::random_key(rng)};
          const u64 truth = mac.mac(target_ret, /*modifier=*/0x1000) &
                            bit_mask(layout.pac_bits());
          const u64 guess = rng.next_below(u64{1} << layout.pac_bits());
          if (guess == truth) break;
        }
        return guesses;
      },
      threads);
  return finish_stats(counts);
}

GuessStats bruteforce_shared_key(unsigned b, u64 trials, u64 seed,
                                 unsigned threads) {
  const pa::VaLayout layout{55U - b};
  const auto counts = exec::parallel_map_trials<u64>(
      trials, seed,
      [&](u64, u64 trial_seed) {
        Rng rng(trial_seed);
        // Pre-forked siblings share one key: the adversary can enumerate
        // token values, burning one sibling per wrong guess, and *keep*
        // partial knowledge — the divide-and-conquer of Section 4.3.
        const crypto::SipMac mac{crypto::random_key(rng)};
        u64 guesses = 0;
        // Stage 1: find the auth token making (ret*, modifier) valid.
        const u64 stage1_truth =
            mac.mac(0x2000, 0xaaaa) & bit_mask(layout.pac_bits());
        for (u64 g = 0;; ++g) {
          ++guesses;
          if (g == stage1_truth) break;
        }
        // Stage 2: the accepted value becomes the next modifier; enumerate
        // the token for the actual target address.
        const u64 stage2_truth =
            mac.mac(0x3000, stage1_truth) & bit_mask(layout.pac_bits());
        for (u64 g = 0;; ++g) {
          ++guesses;
          if (g == stage2_truth) break;
        }
        return guesses;
      },
      threads);
  return finish_stats(counts);
}

GuessStats bruteforce_reseeded(unsigned b, u64 trials, u64 seed,
                               unsigned threads) {
  const pa::VaLayout layout{55U - b};
  const u64 space = u64{1} << layout.pac_bits();
  const auto counts = exec::parallel_map_trials<u64>(
      trials, seed,
      [&](u64, u64 trial_seed) {
        Rng rng(trial_seed);
        const crypto::SipMac mac{crypto::random_key(rng)};
        u64 guesses = 0;
        // Re-seeding makes each sibling's chain disjoint: enumeration with
        // elimination no longer works, so each stage is a fresh uniform
        // search (expected 2^b guesses) instead of a 2^(b-1) enumeration.
        for (unsigned stage = 0; stage < 2; ++stage) {
          for (;;) {
            ++guesses;
            const u64 init = rng.next();  // this sibling's re-seeded chain
            const u64 truth =
                mac.mac(0x2000 + stage, init) & bit_mask(layout.pac_bits());
            if (rng.next_below(space) == truth) break;
          }
        }
        return guesses;
      },
      threads);
  return finish_stats(counts);
}

}  // namespace acs::attack
