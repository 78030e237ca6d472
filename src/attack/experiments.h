// Crypto-level Monte-Carlo security experiments.
//
// Each function measures one probabilistic claim from Sections 4.2, 4.3 or
// 6.2 at a reduced token size b (set through the VA layout, exactly as real
// hardware would shrink the PAC) so success events are observable within a
// bench run. The bench binaries print the measured rates next to the
// paper's closed-form values from core/analysis.h.
//
// Every campaign runs on exec::parallel_trials: trial t draws from its own
// RNG seeded exec::trial_seed(seed, t), so the reported statistics are
// bitwise identical for every `threads` value (0 = all hardware threads,
// 1 = sequential).
#pragma once

#include "common/types.h"

namespace acs::attack {

struct MonteCarloResult {
  u64 trials = 0;
  u64 successes = 0;
  /// AcsChain::compute_aret plus AcsChain::verify calls the campaign made
  /// (each is 1 MAC unmasked, 2 masked). Filled by the four chain
  /// campaigns below; a work count, never part of a bench's output.
  u64 chain_ops = 0;
  [[nodiscard]] double rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }
};

/// Section 6.2.1, on-graph violation: the adversary harvests `harvest`
/// authenticated return addresses along distinct call-graph paths through a
/// victim call site and substitutes a colliding (no masking: detectable;
/// masking: blind guess) predecessor. Paper: success 1 without masking,
/// 2^-b with.
///
/// A trial draws every path's inputs first (ret_c, then per path its
/// nonce and return address), and MACs only what its decision reads:
///  * masked: the substitute j is drawn after the paths and is uniform —
///    masked tokens are indistinguishable (PACStack Theorem 1, Appendix
///    A), so no harvested value could improve the pick. The trial MACs
///    prev_0 and prev_j, and observed_0 plus one verify only when they
///    differ: at most 4 chain ops;
///  * unmasked (and the deep-harvest attack below): paths are MACed in
///    order inside the collision search, which stops at the first
///    exploitable collision, so no later path is ever read.
/// Every outcome is the one MACing all paths first would give, from the
/// same RNG stream.
///
/// Throws std::invalid_argument if `masking` and harvest < 2 (there is no
/// substitute to pick). Without masking any harvest is valid; fewer than
/// two paths cannot collide, so every trial fails.
[[nodiscard]] MonteCarloResult on_graph_attack(unsigned b, bool masking,
                                               u64 harvest, u64 trials,
                                               u64 seed, unsigned threads = 1);

/// REPRODUCTION FINDING (deep-harvest observation). Working through the
/// Listing 3 algebra, a substitution of aret_B for aret_A below a live
/// chain value verifies iff the *masked* tokens collide:
///     t_A ^ m_A == t_B ^ m_B
/// (t = H(ret_C, aret), m = H(0, aret)) — and the masked token is exactly
/// the chain-register value, which is itself stored on the stack one call
/// level deeper whenever the victim function's callee calls further down.
/// An adversary who harvests at that depth sees masked-token collisions
/// directly, restoring birthday-bound success against the masked scheme.
/// The paper's Theorem 1 bounds identification of *raw-tag* collisions,
/// which by the algebra above is not the exploitable condition. This
/// experiment measures the deep-harvest strategy; see EXPERIMENTS.md for
/// discussion. Paths are MACed lazily, as in the unmasked on_graph_attack
/// search; harvest 0 or 1 is valid and never succeeds.
[[nodiscard]] MonteCarloResult on_graph_attack_deep_harvest(
    unsigned b, u64 harvest, u64 trials, u64 seed, unsigned threads = 1);

/// Section 6.2.2, off-graph violation to a *valid call-site* return
/// address: the substituted aret is valid but its (ret_C, aret_B) pair was
/// never computed. Paper: 2^-b regardless of masking.
[[nodiscard]] MonteCarloResult off_graph_to_call_site(unsigned b, bool masking,
                                                      u64 trials, u64 seed,
                                                      unsigned threads = 1);

/// Section 6.2.2, off-graph violation to an *arbitrary* address: both the
/// loader verification and the final jump need fresh guesses. Paper: 2^-2b.
[[nodiscard]] MonteCarloResult off_graph_arbitrary(unsigned b, bool masking,
                                                   u64 trials, u64 seed,
                                                   unsigned threads = 1);

/// Section 4.2 / 6.2.1 birthday statistics: tokens harvested until the
/// first auth-token collision. Paper: mean sqrt(pi/2 * 2^b) (~321 at b=16).
struct CollisionStats {
  double mean_tokens = 0;
  double stddev_tokens = 0;
  u64 trials = 0;
};
[[nodiscard]] CollisionStats tokens_to_collision(unsigned b, u64 trials,
                                                 u64 seed,
                                                 unsigned threads = 1);

/// Empirical P[some pair of q tokens collides] for comparison against
/// core::collision_probability.
[[nodiscard]] MonteCarloResult collision_within(unsigned b, u64 q, u64 trials,
                                                u64 seed,
                                                unsigned threads = 1);

/// Section 4.3 guessing campaigns. Returns the mean number of guesses the
/// attack needed over `trials` runs.
struct GuessStats {
  double mean_guesses = 0;
  double stddev_guesses = 0;
  u64 trials = 0;
};

/// Single process, fresh key after every crash: plain geometric search,
/// mean 2^b.
[[nodiscard]] GuessStats bruteforce_fresh_key(unsigned b, u64 trials, u64 seed,
                                              unsigned threads = 1);

/// Pre-forked siblings sharing the key, no re-seeding: divide-and-conquer
/// over two 2^(b-1) stages; mean 2^b total but each stage's result is
/// reusable — the paper's point is the *arbitrary jump* costs 2^b instead
/// of 2^(2b).
[[nodiscard]] GuessStats bruteforce_shared_key(unsigned b, u64 trials, u64 seed,
                                               unsigned threads = 1);

/// Pre-forked siblings with the Section 4.3 re-seeding mitigation: the two
/// stages cannot be split across siblings; mean 2^(b+1).
[[nodiscard]] GuessStats bruteforce_reseeded(unsigned b, u64 trials, u64 seed,
                                             unsigned threads = 1);

}  // namespace acs::attack
