// Workload `mc`: the Table 1 and Appendix A crypto-level campaigns.
//
// Campaign entries at bench_table1_security's b values: on-graph (b = 6, 8,
// 12; with and without masking), off-graph to a call site (same), off-graph
// to an arbitrary address (b = 6, 8), the deep-harvest on-graph attack
// (b = 8, 12) and the PAC-Collision game (b = 8, q = 64). An op is one
// round: one campaign call per entry with the bench's trial count divided
// by kRoundDivisor, so the entries keep the bench's mix (masked on-graph
// attacks are most of the chain work). Every call has its own seed derived
// from the workload seed, so no MAC input repeats. Unit: Monte-Carlo trial.
// Two host threads.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "attack/experiments.h"
#include "attack/games.h"
#include "common/rng.h"
#include "core/analysis.h"
#include "core/chain.h"
#include "crypto/keys.h"
#include "exec/parallel.h"
#include "layers.h"
#include "pa/pointer_auth.h"
#include "workloads.h"

namespace perfbench {

using namespace acs;

namespace {

constexpr unsigned kThreads = 2;
/// A round runs 1/kRoundDivisor of bench_table1_security's trials.
constexpr u64 kRoundDivisor = 100;
constexpr u64 kWarmupTrials = 64;
constexpr u64 kReferenceSeed = 0xAC501;

u64 g_sink = 0;  // keeps timed results observable

enum class Campaign { kOnGraph, kOffGraphCallSite, kOffGraphArbitrary, kDeepHarvest, kGame };

const char* campaign_name(Campaign c) {
  switch (c) {
    case Campaign::kOnGraph: return "on_graph";
    case Campaign::kOffGraphCallSite: return "off_graph_call_site";
    case Campaign::kOffGraphArbitrary: return "off_graph_arbitrary";
    case Campaign::kDeepHarvest: return "deep_harvest";
    case Campaign::kGame: return "pac_collision_game";
  }
  return "unknown";
}

constexpr unsigned kGameQueries = 64;

struct Entry {
  Campaign campaign;
  unsigned b;
  bool masking;
  u64 bench_trials;  ///< bench_table1_security's trials of this entry

  [[nodiscard]] u64 op_trials() const { return bench_trials / kRoundDivisor; }

  [[nodiscard]] u64 harvest() const { return 5 * (u64{1} << (b / 2)); }

  [[nodiscard]] std::string key() const {
    return std::string(campaign_name(campaign)) + "/b" + std::to_string(b) +
           (masking ? "/masked" : "/unmasked");
  }

  /// Chain operations (compute_aret or verify) per trial, restated from
  /// the campaign definitions in attack/experiments.cc (the campaigns
  /// expose no counters); the game counts MACs. Only the traced run's
  /// attribution uses them.
  [[nodiscard]] double ops_per_trial() const {
    switch (campaign) {
      case Campaign::kOnGraph:
      case Campaign::kDeepHarvest: return 2.0 * static_cast<double>(harvest()) + 1;
      case Campaign::kOffGraphCallSite: return 4;
      case Campaign::kOffGraphArbitrary: return 3;
      case Campaign::kGame: return 2.0 * kGameQueries + 2;
    }
    return 0;
  }

  /// Expected success probability, for the per-op plausibility check.
  [[nodiscard]] double expected_rate() const {
    const auto row = core::table1_probabilities(b, masking);
    switch (campaign) {
      case Campaign::kOnGraph:
        return masking ? row.on_graph : core::collision_probability(harvest(), b);
      case Campaign::kDeepHarvest: return core::collision_probability(harvest(), b);
      case Campaign::kOffGraphCallSite: return row.off_graph_to_call_site;
      case Campaign::kOffGraphArbitrary: return row.off_graph_arbitrary;
      case Campaign::kGame: return std::pow(2.0, -static_cast<double>(b));
    }
    return 0;
  }

  [[nodiscard]] u64 run(u64 n, u64 seed, unsigned threads) const {
    switch (campaign) {
      case Campaign::kOnGraph:
        return attack::on_graph_attack(b, masking, harvest(), n, seed, threads).successes;
      case Campaign::kOffGraphCallSite:
        return attack::off_graph_to_call_site(b, masking, n, seed, threads).successes;
      case Campaign::kOffGraphArbitrary:
        return attack::off_graph_arbitrary(b, masking, n, seed, threads).successes;
      case Campaign::kDeepHarvest:
        return attack::on_graph_attack_deep_harvest(b, harvest(), n, seed, threads)
            .successes;
      case Campaign::kGame:
        return attack::pac_collision_game(b, kGameQueries, n, seed, threads).wins;
    }
    return 0;
  }
};

/// bench_table1_security's entries and trial counts. The masked on-graph
/// counts include the deep-harvest section's same-level attack (100,000
/// more trials at b = 8, 12).
std::vector<Entry> entries() {
  std::vector<Entry> out;
  for (const unsigned b : {6U, 8U, 12U}) {
    const u64 shallow = b == 6 ? 0 : 100'000;
    for (const bool masking : {false, true}) {
      out.push_back({Campaign::kOnGraph, b, masking, masking ? 400'000 + shallow : 4000});
      out.push_back({Campaign::kOffGraphCallSite, b, masking, 400'000});
      if (b <= 8) out.push_back({Campaign::kOffGraphArbitrary, b, masking, 4'000'000});
    }
  }
  out.push_back({Campaign::kDeepHarvest, 8, true, 4000});
  out.push_back({Campaign::kDeepHarvest, 12, true, 4000});
  out.push_back({Campaign::kGame, 8, true, 60'000});
  return out;
}

/// Successes within a loose binomial band around the expected rate.
bool plausible(const Entry& e, u64 n, u64 successes) {
  const double p = e.expected_rate();
  const double mean = p * static_cast<double>(n);
  const double sigma = std::sqrt(mean * (1 - p));
  return successes <= n && std::abs(static_cast<double>(successes) - mean) <= 10 * sigma + 10;
}

class MonteCarlo final : public Workload {
 public:
  MonteCarlo(u64 seed, Reference& ref)
      : seed_(seed), ref_(ref), entries_(entries()) {
    trials_.assign(entries_.size(), 0);
    op_ns_.assign(entries_.size(), 0);
  }

  const char* unit() const override { return "trial"; }
  unsigned threads() const override { return kThreads; }

  void setup(SpanLog* log) override {
    // Nothing to compile: set-up warms every campaign up on a few trials.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Scope span(log, "attack.warmup", 0);
      (void)entries_[i].run(kWarmupTrials, exec::trial_seed(~seed_, i), kThreads);
    }
  }

  /// One op is one round: every entry's campaign call once. Most entries'
  /// calls take under a millisecond, less than the host's scheduling
  /// hiccups, which would then set the latency figures; a round (~180 ms)
  /// does not.
  OpResult run_op(u64 index, SpanLog* log, bool count) override {
    OpResult result;
    result.ok = true;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const u64 trials = e.op_trials();
      const auto t0 = Clock::now();
      u64 successes = 0;
      {
        Scope span(log, "attack.campaign", index);
        successes = e.run(trials, exec::trial_seed(seed_, index * entries_.size() + i),
                          kThreads);
      }
      if (count) {
        trials_[i] += trials;
        op_ns_[i] += ns_since(t0);
      }
      result.units += trials;
      result.ok = result.ok && plausible(e, trials, successes);
      result.fingerprint += std::to_string(successes) + ";";
    }
    return result;
  }

  bool check(Json& out) override {
    // Reference ops: every entry at a fixed seed, success counts pinned,
    // and the same ops on one thread must agree.
    bool ok = true;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const u64 seed = kReferenceSeed + i;
      const u64 wins = e.run(e.op_trials(), seed, kThreads);
      const bool pinned = ref_.expect("mc/" + e.key(), std::to_string(wins));
      const bool invariant = e.run(e.op_trials(), seed, 1) == wins;
      out.boolean("mc.reference." + e.key(), pinned && invariant);
      ok = ok && pinned && invariant;
    }
    return ok;
  }

  void profile(double budget_s, Json& m,
               std::map<std::string, Layer>& layers) override {
    // Unit costs on campaign-shaped inputs: random code addresses chained
    // over random predecessors, under each entry's b-bit PAC layout. Passes
    // repeat for the budget; each quantity keeps its fastest pass.
    constexpr u64 kCalls = 50'000;
    constexpr unsigned kBits[] = {6, 8, 12};
    Rng rng(exec::trial_seed(seed_, ~u64{0}));
    std::vector<pa::PointerAuth> pauths;
    std::vector<std::vector<std::pair<u64, u64>>> inputs;
    for (const unsigned b : kBits) {
      const pa::VaLayout layout{55U - b};
      pauths.emplace_back(crypto::random_key_set(rng), layout);
      auto& in = inputs.emplace_back(1024);
      for (auto& [ret, prev] : in) {
        ret = layout.address_bits(rng.next()) | 0x1000;
        prev = rng.next();
      }
    }
    PaSample sample;
    for (int k = 0; k < 4096; ++k) {
      const u64 ret = pa::VaLayout{39}.address_bits(rng.next()) | 0x1000;
      const u64 modifier = rng.next();
      sample.signs.emplace_back(ret, modifier);
      sample.auths.emplace_back(ret, modifier);
    }
    std::vector<double> aret_samples[2][13];
    std::vector<PaCosts> pa_passes;
    const auto start = Clock::now();
    for (int pass = 0; pass == 0 || seconds_since(start) < budget_s; ++pass) {
      for (std::size_t i = 0; i < std::size(kBits); ++i) {
        for (const bool masking : {false, true}) {
          const core::AcsChain chain{pauths[i], masking};
          const auto& in = inputs[i];
          aret_samples[masking][kBits[i]].push_back(ns_per_call(kCalls, [&](u64 k) {
            const auto& [ret, prev] = in[k % in.size()];
            g_sink ^= chain.compute_aret(ret, prev);
          }));
        }
      }
      pa_passes.push_back(time_pa(sample));
    }
    double aret_ns[2][13] = {};
    for (const bool masking : {false, true}) {
      for (const unsigned b : kBits) aret_ns[masking][b] = fastest(aret_samples[masking][b]);
    }
    const PaCosts pa = fastest(pa_passes);

    double core_count = 0, core_ns = 0, mac_count = 0, pa_ops = 0;
    std::map<std::string, std::pair<double, double>> per_campaign;  // ns, trials
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double ops = static_cast<double>(trials_[i]) * e.ops_per_trial();
      if (e.campaign == Campaign::kGame) {
        mac_count += ops;
        pa_ops += ops;
      } else {
        core_count += ops;
        core_ns += ops * aret_ns[e.masking][e.b];
        pa_ops += ops * (e.masking ? 2 : 1);
      }
      auto& [ns, trials] = per_campaign[campaign_name(e.campaign)];
      ns += op_ns_[i];
      trials += static_cast<double>(trials_[i]);
    }
    // The mix check: masked on-graph's share of the predicted chain time.
    double masked_on_graph_ns = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.campaign == Campaign::kOnGraph && e.masking) {
        masked_on_graph_ns += static_cast<double>(trials_[i]) * e.ops_per_trial() *
                              aret_ns[true][e.b];
      }
    }
    m.num("attack.masked_on_graph_share", core_ns > 0 ? masked_on_graph_ns / core_ns : 0);
    const auto mean_over_b = [&](bool masking) {
      return (aret_ns[masking][6] + aret_ns[masking][8] + aret_ns[masking][12]) / 3;
    };
    m.num("core.aret_ns", mean_over_b(false))
        .num("core.aret_masked_ns", mean_over_b(true))
        .num("crypto.siphash_ns", pa.siphash_ns)
        .num("crypto.qarma_ns", pa.qarma_ns)
        .num("pa.pac_ns", pa.pac_ns)
        .num("pa.aut_ns", pa.aut_ns)
        .num("pa.ops", pa_ops);
    for (const auto& [name, v] : per_campaign) {
      m.num(std::string("attack.trial_us.") + name,
            v.second > 0 ? v.first / v.second * 1e-3 : 0);
    }
    // The campaigns run on kThreads threads: wall share = CPU / threads.
    layers["core"] = {core_count / kThreads,
                      core_count > 0 ? core_ns / core_count : 0};
    layers["crypto"] = {mac_count / kThreads, pa.siphash_ns};
  }

 private:
  u64 seed_;
  Reference& ref_;
  std::vector<Entry> entries_;
  std::vector<u64> trials_;
  std::vector<double> op_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_mc(u64 seed, Reference& ref) {
  return std::make_unique<MonteCarlo>(seed, ref);
}

}  // namespace perfbench
