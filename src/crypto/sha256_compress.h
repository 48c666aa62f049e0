// The SHA-256 block compressions behind crypto::Sha256. Private to
// src/crypto: Sha256 picks one per process from CPUID, and this header
// exists only so that tests/test_crypto.cpp can run the two against each
// other. Nothing selects a compression but the CPU.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace findep::crypto::sha256_internal {

using State = std::array<std::uint32_t, 8>;

/// Folds `n` consecutive 64-byte blocks into `state` (FIPS 180-4, §6.2.2)
/// in portable C++. The fallback on every CPU without SHA-NI, and the
/// reference the SHA-NI compression is tested against.
void compress_portable(State& state, const std::uint8_t* blocks,
                       std::size_t n) noexcept;

#if defined(__x86_64__)
/// True when CPUID reports SHA, SSE4.1 and SSSE3.
[[nodiscard]] bool cpu_has_sha_ni() noexcept;

/// The same compression on the x86 SHA extensions. `blocks` may have any
/// alignment. Call only when cpu_has_sha_ni().
void compress_sha_ni(State& state, const std::uint8_t* blocks,
                     std::size_t n) noexcept;
#endif

}  // namespace findep::crypto::sha256_internal
