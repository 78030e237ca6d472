#include "pa/pointer_auth.h"

#include <cstring>
#include <string>

#include "crypto/siphash.h"

namespace acs::pa {

namespace {

std::unique_ptr<crypto::TweakableMac> make_backend(const char* backend,
                                                   const crypto::Key128& key) {
  return crypto::make_mac(backend, key);
}

}  // namespace

PointerAuth::PointerAuth(const crypto::KeySet& keys, VaLayout layout,
                         const char* backend, bool fpac)
    : layout_(layout), fpac_(fpac) {
  sip_ = std::strcmp(backend, "siphash") == 0;
  for (std::size_t i = 0; i < crypto::kNumKeys; ++i) {
    macs_[i] = make_backend(backend, keys.keys[i]);
    sip_keys_[i] = keys.keys[i];
  }
}

PointerAuth::PointerAuth(const PointerAuth& other)
    : layout_(other.layout_),
      fpac_(other.fpac_),
      sip_keys_(other.sip_keys_),
      sip_(other.sip_) {
  for (std::size_t i = 0; i < crypto::kNumKeys; ++i) {
    macs_[i] = other.macs_[i]->clone();
  }
}

PointerAuth& PointerAuth::operator=(const PointerAuth& other) {
  if (this == &other) return *this;
  layout_ = other.layout_;
  fpac_ = other.fpac_;
  sip_keys_ = other.sip_keys_;
  sip_ = other.sip_;
  for (std::size_t i = 0; i < crypto::kNumKeys; ++i) {
    macs_[i] = other.macs_[i]->clone();
  }
  return *this;
}

u64 PointerAuth::raw_tag(crypto::KeyId key, u64 address, u64 modifier) const {
  const auto i = static_cast<std::size_t>(key);
  // Same tag as SipMac::mac, minus the virtual dispatch (hot PA path).
  if (sip_) return crypto::siphash24_pair(sip_keys_[i], address, modifier);
  return macs_[i]->mac(address, modifier);
}

u64 PointerAuth::expected_pac(crypto::KeyId key, u64 address,
                              u64 modifier) const {
  return layout_.truncate_tag(raw_tag(key, layout_.address_bits(address), modifier));
}

u64 PointerAuth::xpac(u64 pointer) const noexcept {
  return layout_.strip(pointer);
}

u64 PointerAuth::pacga(u64 value, u64 modifier) const {
  const u64 tag =
      macs_[static_cast<std::size_t>(crypto::KeyId::kGA)]->mac(value, modifier);
  return (tag >> 32U) << 32U;
}

}  // namespace acs::pa
