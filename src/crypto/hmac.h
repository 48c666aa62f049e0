// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the local SHA-256.
// Used for keyed commitments (configuration privacy, Remark 3) and as the
// PRF inside the simulated signature and VRF schemes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/sha256.h"

namespace findep::crypto {

/// A key's HMAC schedule: the SHA-256 midstates after compressing the
/// inner and outer pad blocks, computed once per key. Each MAC resumes a
/// Sha256 from them, so a MAC over a 32-byte digest costs two
/// compressions instead of four (plus the key pre-hash, for keys over 64
/// bytes), and the schedule is 64 bytes rather than two whole contexts.
class HmacKey {
 public:
  /// Keys longer than the 64-byte block are pre-hashed per the RFC.
  explicit HmacKey(std::span<const std::uint8_t> key) noexcept;

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;

 private:
  std::array<std::uint32_t, 8> inner_;
  std::array<std::uint32_t, 8> outer_;
};

/// HMAC-SHA256 over `message` with `key` (a one-shot HmacKey).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::string_view message);

}  // namespace findep::crypto
