#include "support/rng.h"

#include <algorithm>
#include <cmath>

namespace findep::support {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept { return splitmix64(x); }

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

Rng Rng::fork(std::uint64_t stream) noexcept {
  // Mixing the parent's next output with the stream id yields streams that
  // are independent for simulation purposes.
  return Rng{mix64((*this)() ^ mix64(stream ^ 0xa02bdbf7bb3c0a7ULL))};
}

double Rng::uniform(double lo, double hi) {
  FINDEP_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  FINDEP_REQUIRE(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double rate) {
  FINDEP_REQUIRE(rate > 0.0);
  // uniform() can return 0; 1-u is in (0, 1].
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::normal(double mean, double stddev) {
  FINDEP_REQUIRE(stddev >= 0.0);
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(6.283185307179586 * u2);
}

std::uint64_t Rng::poisson(double mean) {
  FINDEP_REQUIRE(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double approx = std::round(normal(mean, std::sqrt(mean)));
    return approx <= 0.0 ? 0 : static_cast<std::uint64_t>(approx);
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double product = uniform();
  while (product > limit) {
    ++k;
    product *= uniform();
  }
  return k;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  sample_indices(n, k, chosen);
  return chosen;
}

void Rng::sample_indices(std::size_t n, std::size_t k,
                         std::vector<std::size_t>& out) {
  FINDEP_REQUIRE(k <= n);
  // Floyd's algorithm: O(k) expected insertions, no O(n) scratch.
  out.clear();
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = below(j + 1);
    const bool already = std::find(out.begin(), out.end(), t) != out.end();
    out.push_back(already ? j : t);
  }
}

Bernoulli::Bernoulli(double p) {
  FINDEP_REQUIRE(p >= 0.0 && p <= 1.0);
  // p · 2^53 is exact and at most 2^53, so its ceiling fits a double.
  threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

ZipfTable::ZipfTable(std::size_t n, double s) {
  FINDEP_REQUIRE(n > 0);
  FINDEP_REQUIRE(s >= 0.0);
  weights_.reserve(n);
  for (std::size_t rank = 1; rank <= n; ++rank) {
    weights_.push_back(1.0 / std::pow(static_cast<double>(rank), s));
    total_ += weights_.back();
  }
}

std::size_t ZipfTable::draw(Rng& rng) const noexcept {
  if (weights_.size() == 1) return 0;
  // Direct inversion over the harmonic weights; n is a component kind's
  // variety, so O(n) per draw is fine.
  double target = rng.uniform() * total_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    target -= weights_[i];
    if (target < 0.0) return i;
  }
  return weights_.size() - 1;
}

}  // namespace findep::support
