// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper assumes "the security of the used cryptographic primitives and
// protocols, but not their implementations" (§II-B). We implement the hash
// for real — it anchors configuration digests, Merkle commitments, block
// ids and the simulated signature scheme — and model *implementation*
// flaws separately in the faults library.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace findep::crypto {

class HmacKey;

/// A 256-bit digest. Ordered and hashable so it can key maps.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Digest&) const = default;

  /// Lowercase hex, 64 chars.
  [[nodiscard]] std::string to_hex() const;

  /// Parses 64 hex chars. Throws ContractViolation on malformed input.
  [[nodiscard]] static Digest from_hex(std::string_view hex);

  /// First 8 bytes as big-endian integer — convenient for PoW-style
  /// threshold comparisons and cheap map keys.
  [[nodiscard]] std::uint64_t prefix64() const noexcept;
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() noexcept;

  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  Sha256& update(std::string_view text) noexcept;
  /// Appends an integer in little-endian byte order (domain separation of
  /// numeric fields in protocol messages).
  Sha256& update_u64(std::uint64_t value) noexcept;

  /// Finalizes and returns the digest. The context must not be reused
  /// afterwards (enforced by contract).
  [[nodiscard]] Digest finish();

 private:
  friend class HmacKey;

  /// Resumes a context whose first 64-byte block is already folded into
  /// `midstate` (an HMAC pad block).
  explicit Sha256(const std::array<std::uint32_t, 8>& midstate) noexcept;

  /// Folds `n` whole 64-byte blocks into the state, on SHA-NI when the
  /// CPU has it (sha256_compress.h).
  void compress(const std::uint8_t* blocks, std::size_t n) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

/// One-shot helpers.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] Digest sha256(std::string_view text) noexcept;
/// sha256(sha256(x)) — Bitcoin-style double hash for block ids.
[[nodiscard]] Digest sha256d(std::span<const std::uint8_t> data) noexcept;

}  // namespace findep::crypto

template <>
struct std::hash<findep::crypto::Digest> {
  std::size_t operator()(
      const findep::crypto::Digest& d) const noexcept {
    // The digest is already uniform; fold the first bytes.
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      h = (h << 8) | d.bytes[i];
    }
    return h;
  }
};
