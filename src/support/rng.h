// Deterministic random-number generation for simulations.
//
// All stochastic components in findep (network latency, mining arrivals,
// vulnerability sampling, sortition) draw from an explicitly-seeded `Rng`
// so that every experiment is reproducible from its seed. The generator is
// xoshiro256++ seeded through splitmix64, which is fast, has a 2^256-1
// period, and passes BigCrush — more than adequate for discrete-event
// simulation (crypto-grade randomness is NOT provided here; see
// crypto/keys.h for key material, which is likewise simulation-grade).
//
// The Monte-Carlo loops draw through two precomputed helpers, `Bernoulli`
// (a fixed-p coin flipped without a branch) and `ZipfTable` (popularity
// ranks without a `pow` per draw). Each makes exactly the draws of the
// `Rng` call it stands for, so a seed gives the same values either way.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/assert.h"

namespace findep::support {

/// splitmix64 step; used for seeding and for cheap stateless hashing of
/// 64-bit values (e.g. deriving per-node seeds from a master seed).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a single 64-bit value (one splitmix64 round).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xfeedface12345678ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; `stream` distinguishes
  /// siblings derived from the same parent.
  [[nodiscard]] Rng fork(std::uint64_t stream) noexcept;

  /// Uniform double in [0, 1): the top 53 bits of one draw, times 2^-53.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling so
  /// the result is exactly uniform.
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p in [0, 1]. A loop that
  /// flips one fixed p many times should use `Bernoulli`, which makes the
  /// same draw without a branch.
  [[nodiscard]] bool chance(double p) {
    FINDEP_REQUIRE(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Exponential variate with the given rate (mean 1/rate). Requires
  /// rate > 0. Used for Poisson-process inter-arrival times (mining).
  [[nodiscard]] double exponential(double rate);

  /// Normal variate (Box–Muller, no state cached).
  [[nodiscard]] double normal(double mean, double stddev);

  /// Poisson variate (Knuth for small mean, normal approximation above 64).
  [[nodiscard]] std::uint64_t poisson(double mean);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    if (values.size() < 2) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      using std::swap;
      swap(values[i], values[below(i + 1)]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n), by Floyd's
  /// algorithm. Requires k <= n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

  /// The same k indices, drawn the same way, written into `out` (cleared
  /// first), so a loop that samples many times reuses one buffer and
  /// allocates nothing once it has grown to k.
  void sample_indices(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out);

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// A Bernoulli trial with a fixed success probability p in [0, 1], drawn
/// without a branch. `draw(rng)` is 1 exactly when `rng.chance(p)` would be
/// true, and it makes the same single `rng()` call. `chance` tests
/// x · 2^-53 < p for the draw's top 53 bits x; scaling by 2^53 is exact, so
/// that is x < p · 2^53, and for an integer x that is x < ceil(p · 2^53),
/// the stored threshold. The comparison is read off the borrow of the
/// 64-bit subtraction x − threshold (both are at most 2^53). GCC 12 turns
/// `x < threshold` in a walk's step into a conditional jump, which for p
/// near 1/2 mispredicts on about half the flips; the borrow stays
/// arithmetic.
class Bernoulli {
 public:
  explicit Bernoulli(double p);

  [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept {
    return ((rng() >> 11) - threshold_) >> 63;
  }

 private:
  std::uint64_t threshold_ = 0;
};

/// Zipf-distributed ranks in [0, n) with exponent s >= 0 (s = 0 is
/// uniform): rank r has probability ∝ 1/(r+1)^s. Models "monoculture"
/// popularity skew of software components. The table holds the weights
/// 1/rank^s and their sum, added in rank order, so a draw does no `pow`.
/// `draw` inverts one uniform draw by subtracting the weights in rank
/// order; with n = 1 it draws nothing.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);

  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }

  [[nodiscard]] std::size_t draw(Rng& rng) const noexcept;

 private:
  std::vector<double> weights_;
  double total_ = 0.0;
};

}  // namespace findep::support
