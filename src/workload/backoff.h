// Saturating exponential supervisor backoff, shared by every workload
// supervisor (fleet, topology).
//
// The backoff before restart r (1-based) is
//   initial * multiplier^(r-1), saturating at `cap`.
//
// The cap matters: the former per-module copies of this helper saturated
// at ~u64{0} ("infinity"), which every caller then *added* to a running
// wall-clock or backoff accumulator — wrapping u64 and producing a tiny
// nonsense total for large max_restarts. A finite cap keeps the sum
// meaningful (and `saturating_add` guards the accumulators themselves).
#pragma once

#include "common/types.h"

namespace acs::workload {

/// Default backoff ceiling: 10^9 simulated cycles (~1 simulated second at
/// sim::kSimulatedHz). Far above any backoff a sane policy reaches (the
/// stock fleet policy peaks at 400k cycles), so existing trajectories are
/// unchanged; small enough that max_restarts of them cannot wrap u64.
inline constexpr u64 kDefaultBackoffCapCycles = 1'000'000'000;

/// a + b, saturating at ~u64{0} instead of wrapping.
[[nodiscard]] constexpr u64 saturating_add(u64 a, u64 b) noexcept {
  return a > ~u64{0} - b ? ~u64{0} : a + b;
}

/// Backoff before restart `restart_number` (1-based):
/// min(initial * multiplier^(restart_number - 1), cap). A multiplier of 0
/// is clamped to 1 defensively (callers with a config surface reject it
/// loudly instead — see run_topology_simulation's config checks).
[[nodiscard]] constexpr u64 saturating_backoff(u64 initial_cycles,
                                               u64 multiplier,
                                               u64 restart_number,
                                               u64 cap) noexcept {
  u64 backoff = initial_cycles > cap ? cap : initial_cycles;
  const u64 mult = multiplier < 1 ? 1 : multiplier;
  for (u64 i = 1; i < restart_number; ++i) {
    if (mult != 1 && backoff > cap / mult) return cap;
    backoff *= mult;
    if (backoff > cap) return cap;
  }
  return backoff;
}

}  // namespace acs::workload
