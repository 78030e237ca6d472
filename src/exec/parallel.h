// Deterministic parallel Monte-Carlo trial executor.
//
// Every reproduced table in this repository is a campaign over thousands of
// independent trials (attack guesses, collision harvests, simulated NGINX
// workers). This runner distributes those trials over a std::thread pool
// while keeping the results **bitwise identical regardless of thread
// count** (1 thread ≡ N threads):
//
//   * each trial draws from its own RNG, seeded as
//     trial_seed(base_seed, index) — a SplitMix64 derivation, so no trial
//     ever observes another trial's stream position;
//   * trials are claimed in fixed-size chunks through an atomic counter
//     (dynamic load balancing), but partial results are stored per *chunk*,
//     not per thread, and folded after the pool joins with a fixed-shape
//     binary tree (stride-doubling pairwise merges) — the floating-point
//     reduction tree is therefore a pure function of (n_trials,
//     kTrialChunk), never of scheduling or thread count. The tree both
//     pins the rounding order and keeps the reduction depth logarithmic;
//     wide rounds are themselves parallelised over the pool.
//
// Exceptions thrown by a trial cancel the remaining chunks and are
// rethrown (first one wins) on the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace acs::exec {

/// Per-trial RNG seed: a SplitMix64 derivation of (base_seed, trial_index)
/// with the golden-ratio stride, matching the seeding discipline of
/// Rng::reseed. Distinct indices under the same base seed yield
/// decorrelated streams; the same (base, index) pair always yields the
/// same seed, independent of how trials are scheduled.
[[nodiscard]] constexpr u64 trial_seed(u64 base_seed, u64 trial_index) noexcept {
  u64 state = base_seed ^ (0x9e3779b97f4a7c15ULL * (trial_index + 1));
  return splitmix64(state);
}

/// Number of worker threads a request resolves to: 0 means "all hardware
/// threads"; anything else is used as-is (clamped to >= 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested) noexcept;

/// Trials per atomically claimed chunk. Part of the determinism contract:
/// changing it changes the floating-point merge tree (not the integer
/// statistics), so it is fixed rather than adaptive.
inline constexpr u64 kTrialChunk = 64;

namespace detail {
/// Run fn(chunk_index) for every chunk in [0, n_chunks) on `threads`
/// workers claiming chunks through an atomic counter. Rethrows the first
/// trial exception after all workers have stopped.
void for_each_chunk(u64 n_chunks, unsigned threads,
                    const std::function<void(u64)>& fn);

/// A merge round narrower than this runs inline: spinning up the pool
/// costs more than the merges it would distribute.
inline constexpr u64 kParallelMergePairs = 64;

/// Fold `partials` into partials[0] with a fixed-shape binary tree:
/// stride-doubling pairwise merges, partials[i].merge(partials[i + s]) for
/// i = 0, 2s, 4s, ... The shape is a pure function of partials.size() —
/// never of `threads` — so floating-point reductions are bitwise identical
/// for every thread count; `threads` only decides whether a wide round's
/// (independent) pair merges run on the pool.
template <typename Acc>
void tree_merge(std::vector<Acc>& partials, unsigned threads) {
  const u64 n = partials.size();
  for (u64 stride = 1; stride < n; stride *= 2) {
    const u64 pairs = (n - stride + 2 * stride - 1) / (2 * stride);
    const auto merge_pair = [&](u64 pair) {
      const u64 i = pair * 2 * stride;
      partials[i].merge(partials[i + stride]);
    };
    if (pairs >= kParallelMergePairs && threads != 1) {
      for_each_chunk(pairs, threads, merge_pair);
    } else {
      for (u64 pair = 0; pair < pairs; ++pair) merge_pair(pair);
    }
  }
}
}  // namespace detail

/// Merged campaign statistics: a success/trial counter for Monte-Carlo
/// rate estimates, a work counter, and a Welford accumulator for per-trial
/// samples. Chunk partials are folded with the fixed-shape merge tree, so
/// every field — including the floating-point ones — is independent of the
/// thread count.
class TrialAccumulator {
 public:
  /// Record one Bernoulli trial (e.g. an attack attempt).
  void add_outcome(bool success) noexcept {
    ++trials_;
    successes_ += success ? 1 : 0;
  }

  /// Record one real-valued sample (e.g. guesses until success).
  void add_sample(double x) noexcept { samples_.add(x); }

  /// Count `n` units of work (e.g. chain operations). An integer sum, so
  /// the total is the same for every thread count.
  void add_ops(u64 n) noexcept { ops_ += n; }

  /// Fold another accumulator into this one. Order-sensitive in floating
  /// point: callers must merge partials in a fixed shape (parallel_trials
  /// uses detail::tree_merge).
  void merge(const TrialAccumulator& other) noexcept {
    trials_ += other.trials_;
    successes_ += other.successes_;
    ops_ += other.ops_;
    samples_.merge(other.samples_);
  }

  [[nodiscard]] u64 trials() const noexcept { return trials_; }
  [[nodiscard]] u64 successes() const noexcept { return successes_; }
  [[nodiscard]] u64 ops() const noexcept { return ops_; }
  [[nodiscard]] double success_rate() const noexcept {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(successes_) /
                              static_cast<double>(trials_);
  }
  [[nodiscard]] const Accumulator& samples() const noexcept { return samples_; }

 private:
  u64 trials_ = 0;
  u64 successes_ = 0;
  u64 ops_ = 0;
  Accumulator samples_;
};

/// Run `n_trials` independent trials of `fn(trial_index, seed, acc)` and
/// return the merged accumulator. `fn` must derive all randomness from
/// `seed` (via acs::Rng or otherwise) and record its outcome into `acc`;
/// it must not touch state shared with other trials. `threads == 0` uses
/// all hardware threads; the result is bitwise identical for every thread
/// count.
template <typename Fn>
[[nodiscard]] TrialAccumulator parallel_trials(u64 n_trials, u64 base_seed,
                                               Fn&& fn, unsigned threads = 0) {
  const u64 n_chunks = (n_trials + kTrialChunk - 1) / kTrialChunk;
  std::vector<TrialAccumulator> partials(n_chunks);
  detail::for_each_chunk(n_chunks, threads, [&](u64 chunk) {
    const u64 begin = chunk * kTrialChunk;
    const u64 end = std::min(n_trials, begin + kTrialChunk);
    for (u64 t = begin; t < end; ++t) {
      fn(t, trial_seed(base_seed, t), partials[chunk]);
    }
  });
  if (partials.empty()) return {};
  detail::tree_merge(partials, threads);
  return std::move(partials.front());
}

/// Map every trial to a value: out[i] = fn(i, trial_seed(base_seed, i)).
/// Results land at their trial index, so the returned vector — and any
/// sequential reduction over it — is independent of the thread count.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map_trials(u64 n_trials, u64 base_seed,
                                                 Fn&& fn, unsigned threads = 0) {
  std::vector<T> out(n_trials);
  const u64 n_chunks = (n_trials + kTrialChunk - 1) / kTrialChunk;
  detail::for_each_chunk(n_chunks, threads, [&](u64 chunk) {
    const u64 begin = chunk * kTrialChunk;
    const u64 end = std::min(n_trials, begin + kTrialChunk);
    for (u64 t = begin; t < end; ++t) out[t] = fn(t, trial_seed(base_seed, t));
  });
  return out;
}

/// Run `n_trials` trials, each producing a mergeable shard via
/// `fn(trial_index, seed, shard)` (Shard needs `merge(const Shard&)`, e.g.
/// obs::Metrics), and fold all shards with the fixed-shape merge tree.
/// One shard per trial — not per chunk — so the tree shape depends only on
/// n_trials and the merged result is bitwise identical for every thread
/// count. This is the observability layer's aggregation primitive: metrics
/// shards from parallel campaigns go through here.
template <typename Shard, typename Fn>
[[nodiscard]] Shard parallel_sharded(u64 n_trials, u64 base_seed, Fn&& fn,
                                     unsigned threads = 0) {
  std::vector<Shard> shards(n_trials);
  const u64 n_chunks = (n_trials + kTrialChunk - 1) / kTrialChunk;
  detail::for_each_chunk(n_chunks, threads, [&](u64 chunk) {
    const u64 begin = chunk * kTrialChunk;
    const u64 end = std::min(n_trials, begin + kTrialChunk);
    for (u64 t = begin; t < end; ++t) {
      fn(t, trial_seed(base_seed, t), shards[t]);
    }
  });
  if (shards.empty()) return {};
  detail::tree_merge(shards, threads);
  return std::move(shards.front());
}

}  // namespace acs::exec
