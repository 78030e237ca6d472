// QARMA-64 — the tweakable block cipher family referenced by the ARMv8.3-A
// pointer-authentication specification (Avanzi, ToSC 2017).
//
// This is a structurally faithful implementation of the QARMA-64 design:
// 16 4-bit cells, r forward rounds, a key-dependent central pseudo-reflector
// and r backward rounds; the sigma_1 S-box, the tau cell shuffle, the
// involutory MixColumns matrix M = circ(0, rho, rho^2, rho), the tweak
// schedule (cell shuffle h plus the omega LFSR on cells {0,1,3,4,8,11,13}),
// pi-derived round constants and the alpha reflection constant.
//
// Published test vectors are not reachable in this offline environment, so
// correctness is asserted structurally in tests/crypto: exact
// encrypt/decrypt inversion for random keys/tweaks, involution of M,
// bijectivity of the component permutations, and avalanche/key/tweak
// separation. The PAC layer uses SipHash-2-4 by default (vector-verified);
// QarmaMac is provided for structural-fidelity experiments and performance
// comparison (perfbench's crypto.qarma_ns).
#pragma once

#include "common/types.h"
#include "crypto/keys.h"

namespace acs::crypto {

/// The three 4-bit S-boxes proposed for QARMA (sigma_0 is lightweight,
/// sigma_1 the default, sigma_2 the high-security option).
enum class QarmaSbox : u8 { kSigma0, kSigma1, kSigma2 };

/// QARMA-64 with a configurable number of forward/backward rounds
/// (the PA reference design uses r = 7; r = 5 is the lightweight variant).
class Qarma64 {
 public:
  /// `key.hi` is the whitening key w0, `key.lo` the core key k0.
  explicit Qarma64(const Key128& key, unsigned rounds = 7,
                   QarmaSbox sbox = QarmaSbox::kSigma1);

  /// Encrypt one 64-bit block under a 64-bit tweak.
  [[nodiscard]] u64 encrypt(u64 plaintext, u64 tweak) const noexcept;

  /// Decrypt one 64-bit block under a 64-bit tweak (exact inverse).
  [[nodiscard]] u64 decrypt(u64 ciphertext, u64 tweak) const noexcept;

  [[nodiscard]] unsigned rounds() const noexcept { return rounds_; }

  [[nodiscard]] QarmaSbox sbox() const noexcept { return sbox_; }

  // Component functions exposed for the structural property tests.
  [[nodiscard]] static u64 mix_columns(u64 state) noexcept;
  [[nodiscard]] static u64 shuffle_tau(u64 state) noexcept;
  [[nodiscard]] static u64 shuffle_tau_inv(u64 state) noexcept;
  [[nodiscard]] static u64 sbox_layer(u64 state,
                                      QarmaSbox sbox = QarmaSbox::kSigma1) noexcept;
  [[nodiscard]] static u64 sbox_layer_inv(u64 state,
                                          QarmaSbox sbox = QarmaSbox::kSigma1) noexcept;
  [[nodiscard]] static u64 tweak_forward(u64 tweak) noexcept;
  [[nodiscard]] static u64 tweak_backward(u64 tweak) noexcept;

 private:
  u64 w0_;       ///< outer whitening key
  u64 w1_;       ///< derived whitening key o(w0)
  u64 k0_;       ///< core round key
  u64 k1_;       ///< reflector key (= k0 in the 1-round-key variant)
  unsigned rounds_;
  QarmaSbox sbox_;
};

}  // namespace acs::crypto
