#include "crypto/hmac.h"

#include <algorithm>

namespace findep::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) noexcept {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> padded{};
  if (key.size() > kBlock) {
    const Digest hashed = sha256(key);
    std::copy(hashed.bytes.begin(), hashed.bytes.end(), padded.begin());
  } else {
    std::copy(key.begin(), key.end(), padded.begin());
  }

  std::array<std::uint8_t, kBlock> inner_pad;
  std::array<std::uint8_t, kBlock> outer_pad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    inner_pad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36);
    outer_pad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5c);
  }
  inner_ = Sha256{}.update(inner_pad).state_;
  outer_ = Sha256{}.update(outer_pad).state_;
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const {
  const Digest inner = Sha256(inner_).update(message).finish();
  return Sha256(outer_).update(inner.bytes).finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacKey(key).mac(message);
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::string_view message) {
  return hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(message.data()),
               message.size()));
}

}  // namespace findep::crypto
