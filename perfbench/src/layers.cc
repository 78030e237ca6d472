#include "layers.h"

#include <algorithm>

#include "common/rng.h"
#include "crypto/keys.h"
#include "crypto/mac.h"
#include "obs/recorder.h"
#include "pa/pointer_auth.h"

namespace perfbench {

using namespace acs;

namespace {

// Replays are repeated until this many operations are timed, so short
// samples still give a stable per-call figure.
constexpr u64 kMinTimedOps = 100'000;
constexpr u64 kQarmaOps = 256;  // QARMA-64 costs microseconds per call

u64 g_sink = 0;  // keeps timed results observable

}  // namespace

void capture_pa(const kernel::Machine& master, u64 seed, PaSample& sample) {
  obs::RecorderConfig config;
  config.metrics = false;
  config.trace = true;
  config.ring_capacity = 1 << 16;
  obs::Recorder recorder(config);
  kernel::MachineOptions options;
  options.seed = seed;
  options.recorder = &recorder;
  kernel::Machine machine(master, options);
  machine.run();
  for (const auto& track : recorder.trace().tracks()) {
    for (const obs::Event& event : track.ring().snapshot()) {
      if (event.kind == obs::EventKind::kPacSign) {
        sample.signs.emplace_back(event.a, event.b);
      } else if (event.kind == obs::EventKind::kPacAuthOk ||
                 event.kind == obs::EventKind::kPacAuthFail) {
        sample.auths.emplace_back(event.a, event.b);
      }
    }
  }
}

PaCosts time_pa(const PaSample& sample) {
  PaCosts costs;
  Rng rng(0x7a11);
  const pa::PointerAuth pauth{crypto::random_key_set(rng), pa::VaLayout{39}};
  const auto& signs = sample.signs;
  const auto& auths = sample.auths;

  const auto timed = [](const auto& ops, auto&& call) {
    if (ops.empty()) return 0.0;
    const u64 n = ops.size();
    const u64 calls = std::max<u64>(n, kMinTimedOps / n * n);
    return ns_per_call(calls, [&](u64 i) { call(ops[i % n]); });
  };

  costs.pac_ns = timed(signs, [&](const std::pair<u64, u64>& op) {
    g_sink ^= pauth.pac(crypto::KeyId::kIA, op.first, op.second);
  });
  std::vector<std::pair<u64, u64>> signed_ops;
  signed_ops.reserve(auths.size());
  for (const auto& [pc, modifier] : auths) {
    signed_ops.emplace_back(pauth.pac(crypto::KeyId::kIA, pc, modifier),
                            modifier);
  }
  costs.aut_ns = timed(signed_ops, [&](const std::pair<u64, u64>& op) {
    g_sink ^= pauth.aut(crypto::KeyId::kIA, op.first, op.second).pointer;
  });

  const crypto::Key128 key = crypto::random_key(rng);
  const auto sip = crypto::make_mac("siphash", key);
  costs.siphash_ns = timed(signs, [&](const std::pair<u64, u64>& op) {
    g_sink ^= sip->mac(op.first, op.second);
  });
  const auto qarma = crypto::make_mac("qarma", key);
  if (!signs.empty()) {
    const u64 n = std::min<u64>(signs.size(), kQarmaOps);
    costs.qarma_ns = ns_per_call(n, [&](u64 i) {
      g_sink ^= qarma->mac(signs[i].first, signs[i].second);
    });
  }
  return costs;
}

PaCosts fastest(const std::vector<PaCosts>& passes) {
  const auto field = [&](double PaCosts::*member) {
    std::vector<double> v;
    for (const PaCosts& p : passes) v.push_back(p.*member);
    return fastest(v);
  };
  return {.pac_ns = field(&PaCosts::pac_ns),
          .aut_ns = field(&PaCosts::aut_ns),
          .siphash_ns = field(&PaCosts::siphash_ns),
          .qarma_ns = field(&PaCosts::qarma_ns)};
}

}  // namespace perfbench
