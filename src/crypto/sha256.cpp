#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/sha256_compress.h"
#include "support/assert.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

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

Sha256::Sha256(const std::array<std::uint32_t, 8>& midstate) noexcept
    : state_(midstate), total_bytes_(64) {}

namespace sha256_internal {

void compress_portable(State& state, const std::uint8_t* blocks,
                       std::size_t n) noexcept {
  for (const std::uint8_t* block = blocks; n != 0; --n, block += 64) {
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

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + ((e & f) ^ (~e & g)) +
                               kRoundConstants[i] + w[i];
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

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

namespace {

// The SHA extensions keep the eight working variables in two registers,
// ABEF and CDGH (most significant word first). SHA256RNDS2 runs two
// rounds from the low two words of its message-plus-constant operand,
// SHA256MSG1 and SHA256MSG2 extend the message schedule four words at a
// time, and PSHUFB turns each big-endian word of the block into a lane.

#define FINDEP_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

FINDEP_SHA_NI inline __m128i load_words(const std::uint8_t* p) noexcept {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

// Rounds 4i..4i+3, where `w` holds W[4i..4i+3].
FINDEP_SHA_NI inline void four_rounds(__m128i& abef, __m128i& cdgh,
                                      __m128i w, std::size_t i) noexcept {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * i])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// W[t..t+3] from the four word groups before it: w0 holds W[t-16..t-13]
// and w3 holds W[t-4..t-1]. alignr picks out W[t-7..t-4].
FINDEP_SHA_NI inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2,
                                        __m128i w3) noexcept {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

}  // namespace

FINDEP_SHA_NI void compress_sha_ni(State& state, const std::uint8_t* blocks,
                                   std::size_t n) noexcept {
  // state[0..3] = ABCD and state[4..7] = EFGH, one word per lane.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (const std::uint8_t* block = blocks; n != 0; --n, block += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(block);
    __m128i w1 = load_words(block + 16);
    __m128i w2 = load_words(block + 32);
    __m128i w3 = load_words(block + 48);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    for (std::size_t i = 4; i < 16; i += 4) {
      w0 = next_words(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, i);
      w1 = next_words(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, i + 1);
      w2 = next_words(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, i + 2);
      w3 = next_words(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef FINDEP_SHA_NI

#endif

}  // namespace sha256_internal

namespace {

using Compression = void (*)(sha256_internal::State&, const std::uint8_t*,
                             std::size_t) noexcept;

Compression select_compression() noexcept {
#if defined(__x86_64__)
  if (sha256_internal::cpu_has_sha_ni()) {
    return sha256_internal::compress_sha_ni;
  }
#endif
  return sha256_internal::compress_portable;
}

}  // namespace

void Sha256::compress(const std::uint8_t* blocks, std::size_t n) noexcept {
  // Resolved on first use, which may come from a static initializer.
  static const Compression selected = select_compression();
  selected(state_, blocks, n);
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
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (remaining >= 64) {
    const std::size_t blocks = remaining / 64;
    compress(p, blocks);
    p += 64 * blocks;
    remaining -= 64 * blocks;
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
    compress(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(buffer_.data(), 1);
  buffered_ = 0;

  // Each state word is stored big-endian: one byte swap per word on a
  // little-endian host. (GCC vectorizes the equivalent shift-per-byte
  // loop into a long run of shuffles.)
  static_assert(std::endian::native == std::endian::little ||
                std::endian::native == std::endian::big);
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint32_t word = state_[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(out.bytes.data() + 4 * i, &word, sizeof word);
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
