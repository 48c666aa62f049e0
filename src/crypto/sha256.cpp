#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "support/assert.h"

namespace findep::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t big_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
constexpr std::uint32_t big_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
constexpr std::uint32_t small_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t small_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

constexpr int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Digest::to_hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0f]);
  }
  return out;
}

Digest Digest::from_hex(std::string_view hex) {
  FINDEP_REQUIRE_MSG(hex.size() == 64, "digest hex must be 64 chars");
  Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    const int hi = hex_value(hex[2 * i]);
    const int lo = hex_value(hex[2 * i + 1]);
    FINDEP_REQUIRE_MSG(hi >= 0 && lo >= 0, "digest hex must be [0-9a-fA-F]");
    d.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return d;
}

std::uint64_t Digest::prefix64() const noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v = (v << 8) | bytes[i];
  }
  return v;
}

Sha256::Sha256() noexcept : state_(kInitialState) {}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
           w[i - 16];
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kRoundConstants[i] + w[i];
    const std::uint32_t t2 =
        big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t remaining = data.size();
  total_bytes_ += remaining;

  if (buffered_ != 0) {
    const std::size_t take = std::min(remaining, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    remaining -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (remaining >= 64) {
    process_block(p);
    p += 64;
    remaining -= 64;
  }
  if (remaining != 0) {
    std::memcpy(buffer_.data(), p, remaining);
    buffered_ = remaining;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view text) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256& Sha256::update_u64(std::uint64_t value) noexcept {
  std::array<std::uint8_t, 8> le;
  for (auto& b : le) {
    b = static_cast<std::uint8_t>(value & 0xff);
    value >>= 8;
  }
  return update(le);
}

Digest Sha256::finish() {
  FINDEP_REQUIRE_MSG(!finished_, "Sha256 context reused after finish()");
  finished_ = true;

  // Padding, written into the block buffer in place: 0x80, zeros up to
  // byte 56 of the last block (spilling into one extra block when fewer
  // than 9 bytes are left), then the 64-bit big-endian bit length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  return Sha256{}.update(data).finish();
}

Digest sha256(std::string_view text) noexcept {
  return Sha256{}.update(text).finish();
}

Digest sha256d(std::span<const std::uint8_t> data) noexcept {
  const Digest first = sha256(data);
  return sha256(first.bytes);
}

}  // namespace findep::crypto
