#include "synth/families.h"

#include <algorithm>

namespace acs::synth {

namespace {

/// Base point every family perturbs: moderate fan-out, quarter leaf mix,
/// small frames — a "typical C call graph" centre so each family moves
/// one axis at a time.
SynthParams base_params() {
  SynthParams p;
  p.depth_dist = DepthDist::kFixed;
  p.fixed_depth = 8;
  p.max_depth = 32;
  p.num_sites = 8;
  p.leaf_ratio = 0.25;
  p.frame_bytes = 32;
  p.touches_per_frame = 2;
  p.compute_cycles = 4;
  return p;
}

void add(std::vector<KernelSpec>& out, std::string family, std::string point,
         const SynthParams& params, u64 seed = 1) {
  out.push_back({std::move(family), std::move(point), params, seed});
}

}  // namespace

std::vector<KernelSpec> sweep_specs(bool smoke) {
  std::vector<KernelSpec> out;

  // ladder: fixed call depth — the authentication-chain length axis.
  {
    SynthParams p = base_params();
    for (u64 depth : {u64{4}, u64{16}, u64{48}}) {
      if (smoke && depth != 16) continue;
      p.fixed_depth = depth;
      p.max_depth = std::max<u64>(depth, 32);
      add(out, "ladder", "depth" + std::to_string(depth), p);
    }
  }

  // geo: geometric depth draw — many shallow calls, exponential tail.
  {
    SynthParams p = base_params();
    p.depth_dist = DepthDist::kGeometric;
    p.num_sites = 16;
    for (double prob : {0.5, 0.125}) {
      if (smoke && prob != 0.5) continue;
      p.geometric_p = prob;
      add(out, "geo",
          std::string{"p"}.append(std::to_string(prob).substr(0, 5)), p);
    }
  }

  // zipf: heavy-head depth draw with indirect edges — the shape of
  // dispatch-table-driven code; s = 0 is the uniform control.
  {
    SynthParams p = base_params();
    p.depth_dist = DepthDist::kZipf;
    p.num_sites = 16;
    p.indirect_density = 0.3;
    for (double s : {0.0, 1.0, 2.0}) {
      if (smoke && s != 1.0) continue;
      p.zipf_s = s;
      add(out, "zipf",
          std::string{"s"}.append(std::to_string(s).substr(0, 3)), p);
    }
  }

  // recurse: unrolled-recursion share vs the varied ladder.
  {
    SynthParams p = base_params();
    p.leaf_ratio = 0.5;
    for (double ratio : {0.5, 1.0}) {
      if (smoke && ratio != 1.0) continue;
      p.recursion_ratio = ratio;
      add(out, "recurse",
          std::string{"r"}.append(std::to_string(ratio).substr(0, 3)), p);
    }
  }

  // unwind: setjmp + exception traffic — the irregular-control-flow tax
  // (PACStack must re-seal the chain across every non-local exit).
  {
    SynthParams p = base_params();
    p.fixed_depth = 12;
    for (double mix : {0.25, 0.5}) {
      if (smoke && mix != 0.5) continue;
      p.setjmp_mix = mix;
      p.exception_mix = mix;
      add(out, "unwind",
          std::string{"m"}.append(std::to_string(mix).substr(0, 4)), p);
    }
  }

  // signal: handler installation + delivery on the call path.
  {
    SynthParams p = base_params();
    p.fixed_depth = 12;
    p.signal_mix = 0.5;
    add(out, "signal", "m0.50", p);
  }

  // membound: per-frame data footprint — does the scheme tax scale with
  // frame traffic or only with call count?
  {
    SynthParams p = base_params();
    p.touches_per_frame = 8;
    for (u64 bytes : {u64{256}, u64{512}}) {
      if (smoke && bytes != 256) continue;
      p.frame_bytes = bytes;
      add(out, "membound", std::string{"b"}.append(std::to_string(bytes)), p);
    }
  }

  return out;
}

std::vector<KernelSpec> fuzz_seed_specs() {
  std::vector<KernelSpec> out;

  // Deep chains: kDepth histogram buckets blind generation never reaches
  // (make_random_ir tops out at a handful of frames).
  {
    SynthParams p = base_params();
    p.fixed_depth = 48;
    p.max_depth = 48;
    p.vuln_sites = 2;
    add(out, "seed", "deep48", p, 101);
    p.recursion_ratio = 1.0;
    add(out, "seed", "deep48r", p, 102);
  }

  // Non-local exits: setjmp/longjmp and throw/catch runtime + lowering
  // features.
  {
    SynthParams p = base_params();
    p.fixed_depth = 12;
    p.setjmp_mix = 0.6;
    p.exception_mix = 0.6;
    p.vuln_sites = 2;
    add(out, "seed", "unwind", p, 103);
  }

  // Signal delivery: golden-unsupported, cross-scheme oracle territory.
  {
    SynthParams p = base_params();
    p.fixed_depth = 8;
    p.signal_mix = 0.75;
    add(out, "seed", "signal", p, 104);
  }

  // Indirect + via-slot lowering, zipf-skewed depths.
  {
    SynthParams p = base_params();
    p.depth_dist = DepthDist::kZipf;
    p.zipf_s = 1.5;
    p.num_sites = 16;
    p.indirect_density = 0.4;
    p.slot_density = 0.4;
    add(out, "seed", "dispatch", p, 105);
  }

  // Big frames + deep geometric tail: depth buckets and frame-traffic
  // runtime counters together.
  {
    SynthParams p = base_params();
    p.depth_dist = DepthDist::kGeometric;
    p.geometric_p = 0.1;
    p.max_depth = 48;
    p.frame_bytes = 256;
    p.touches_per_frame = 6;
    add(out, "seed", "frames", p, 106);
  }

  return out;
}

}  // namespace acs::synth
