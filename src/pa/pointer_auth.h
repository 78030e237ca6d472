// Architectural semantics of the ARMv8.3-A PA instructions.
//
// Models pac* / aut* / xpac exactly as the paper relies on them:
//   * `pac` embeds a truncated MAC of (address, modifier) into the unused
//     pointer bits. If the input pointer's extension bits are corrupt, the
//     PAC is computed as though they were canonical and a well-known PAC
//     bit is flipped — the quirk behind the Section 6.3.1 signing gadget.
//   * `aut` verifies and strips the PAC. On failure it does not fault
//     (pre-ARMv8.6): it strips the PAC and flips a well-known high-order
//     bit, so the pointer faults when translated (used as a branch/load
//     target). The optional FPAC mode (ARMv8.6-A, Section 6.3.1's
//     "forthcoming additions") reports the failure immediately.
//   * `xpac` strips the PAC without verification.
//   * `pacga` produces a 32-bit generic MAC in the high half of the result
//     (used by the Appendix B sigreturn defence discussion).
#pragma once

#include <memory>

#include "common/types.h"
#include "crypto/keys.h"
#include "crypto/mac.h"
#include "pa/va_layout.h"

namespace acs::pa {

/// Outcome of an `aut` operation.
struct AutResult {
  u64 pointer = 0;    ///< resulting pointer (canonical on success)
  bool ok = false;    ///< verification outcome
  bool fault = false; ///< true only in FPAC mode on failure
};

/// One process's PA engine: the five keyed MACs plus the VA layout.
///
/// The kernel model owns one PointerAuth per process and regenerates the
/// keys on exec; user code (and the adversary) can only reach it through
/// the CPU's pac/aut instructions, never the keys themselves.
class PointerAuth {
 public:
  /// `backend` selects the MAC ("siphash" default, "qarma", "ro").
  PointerAuth(const crypto::KeySet& keys, VaLayout layout,
              const char* backend = "siphash", bool fpac = false);

  PointerAuth(const PointerAuth& other);
  PointerAuth& operator=(const PointerAuth& other);
  PointerAuth(PointerAuth&&) noexcept = default;
  PointerAuth& operator=(PointerAuth&&) noexcept = default;

  [[nodiscard]] const VaLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] bool fpac() const noexcept { return fpac_; }

  /// Full-width tag H_k(address, modifier) for key `key` — the quantity the
  /// paper calls H_k(ret, aret). Exposed for the crypto-level ACS model so
  /// that both levels share one definition of H.
  [[nodiscard]] u64 raw_tag(crypto::KeyId key, u64 address, u64 modifier) const;

  /// pacia/pacib/pacda/pacdb semantics (key-generic): the MAC step, then
  /// the apply step.
  [[nodiscard]] u64 pac(crypto::KeyId key, u64 pointer, u64 modifier) const {
    return apply_pac(
        pointer, expected_pac(key, layout_.address_bits(pointer), modifier));
  }

  /// autia/autib/autda/autdb semantics (key-generic): the MAC step, then
  /// the apply step.
  [[nodiscard]] AutResult aut(crypto::KeyId key, u64 pointer,
                              u64 modifier) const {
    return apply_aut(
        pointer, expected_pac(key, layout_.address_bits(pointer), modifier));
  }

  /// The key-free half of pac(): embed `expected`, the expected_pac() of
  /// the pointer's address bits and the modifier, into `pointer`.
  [[nodiscard]] u64 apply_pac(u64 pointer, u64 expected) const noexcept {
    u64 pac_value = expected;
    // Section 6.3.1 quirk: if the extension bits of the input pointer are
    // corrupt (e.g. produced by a failed aut), the PAC is computed over the
    // canonical address but a well-known PAC bit is flipped so the result
    // does not verify. This is what defeats naive aut->pac signing gadgets.
    if (!layout_.is_canonical(pointer)) {
      pac_value ^= u64{1} << layout_.gadget_flip_bit();
    }
    return layout_.with_pac(layout_.address_bits(pointer), pac_value);
  }

  /// The key-free half of aut(): verify `pointer` against `expected`, the
  /// expected_pac() of its address bits and the modifier.
  [[nodiscard]] AutResult apply_aut(u64 pointer, u64 expected) const noexcept {
    const u64 address = layout_.address_bits(pointer);
    const u64 embedded = layout_.pac_field(pointer);
    // Every bit outside the address and PAC fields must be clean for the
    // pointer to be a well-formed signed user pointer (bit 55 always; the
    // tag byte too when TBI reserves it).
    const bool ext_clean = pointer == layout_.with_pac(address, embedded);
    if (embedded == expected && ext_clean) {
      return AutResult{address, /*ok=*/true, /*fault=*/false};
    }
    if (fpac_) {
      // ARMv8.6-A FPAC: authentication failure faults immediately.
      return AutResult{address, /*ok=*/false, /*fault=*/true};
    }
    // Pre-FPAC: strip the PAC, flip the well-known error bit; the pointer
    // only faults later, when translated.
    const u64 poisoned = address | (u64{1} << VaLayout::error_bit());
    return AutResult{poisoned, /*ok=*/false, /*fault=*/false};
  }

  /// xpaci/xpacd semantics.
  [[nodiscard]] u64 xpac(u64 pointer) const noexcept;

  /// pacga semantics: 32-bit generic MAC of (value, modifier) in the high
  /// half of the result, low half zero.
  [[nodiscard]] u64 pacga(u64 value, u64 modifier) const;

  /// The expected PAC field value for (pointer-address, modifier) — what a
  /// successful pac() would embed. Exposed for tests and the analytic layer.
  [[nodiscard]] u64 expected_pac(crypto::KeyId key, u64 address, u64 modifier) const;

 private:
  VaLayout layout_;
  bool fpac_;
  std::array<std::unique_ptr<crypto::TweakableMac>, crypto::kNumKeys> macs_;
  // Devirtualized fast path for the default backend: raw_tag calls
  // siphash24_pair directly (same tag values as SipMac::mac) instead of
  // two virtual hops per pac/aut — the per-call MACs dominate PA-heavy
  // instruction mixes.
  std::array<crypto::Key128, crypto::kNumKeys> sip_keys_{};
  bool sip_ = false;
};

}  // namespace acs::pa
