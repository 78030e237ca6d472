// Unit-cost timing of the MAC and PA layers on a workload's own inputs.
//
// The inputs are the (address, modifier) pairs a simulated run actually
// signs and authenticates, captured from an obs::Recorder trace of that
// run and replayed, in order, through the public crypto and PA calls.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "harness.h"
#include "kernel/machine.h"

namespace perfbench {

/// The PA operands of one or more simulated runs, in execution order.
struct PaSample {
  std::vector<std::pair<u64, u64>> signs;  ///< (pc, modifier) of pac*
  std::vector<std::pair<u64, u64>> auths;  ///< (pc, modifier) of aut*
};

/// Fork `master` with a tracing recorder, run it, and append its PA
/// operands to `sample` (up to the trace ring's capacity per task).
void capture_pa(const acs::kernel::Machine& master, u64 seed, PaSample& sample);

struct PaCosts {
  double pac_ns = 0;
  double aut_ns = 0;
  double siphash_ns = 0;
  double qarma_ns = 0;
};

/// Time PointerAuth::pac / aut and TweakableMac::mac (SipHash, QARMA-64)
/// over the sample's operands, once.
[[nodiscard]] PaCosts time_pa(const PaSample& sample);

/// Field-wise fastest of several time_pa passes.
[[nodiscard]] PaCosts fastest(const std::vector<PaCosts>& passes);

/// The fastest of repeated timing samples. Interference from the rest of
/// the host only ever slows work down, so a unit cost (one call of one
/// public function) is read at the fastest of passes spread over the
/// unit-cost phase.
[[nodiscard]] inline double fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0 : *std::min_element(samples.begin(), samples.end());
}

/// Nanoseconds per call of `fn` over `calls` calls.
template <typename Fn>
[[nodiscard]] double ns_per_call(u64 calls, Fn&& fn) {
  const auto start = Clock::now();
  for (u64 i = 0; i < calls; ++i) fn(i);
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
         static_cast<double>(calls == 0 ? 1 : calls);
}

[[nodiscard]] inline double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

}  // namespace perfbench
