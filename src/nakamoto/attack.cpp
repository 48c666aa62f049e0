#include "nakamoto/attack.h"

#include <cmath>

#include "support/assert.h"

namespace findep::nakamoto {

double attack_success_closed_form(double q, unsigned z) {
  FINDEP_REQUIRE(q >= 0.0 && q <= 1.0);
  if (q >= 0.5) return 1.0;
  if (q == 0.0) return 0.0;
  const double p = 1.0 - q;
  const double lambda = static_cast<double>(z) * q / p;
  // P = 1 - Σ_{k=0}^{z} Poisson(k; λ) (1 - (q/p)^{z-k})
  double sum = 0.0;
  double poisson = std::exp(-lambda);  // k = 0 term
  for (unsigned k = 0; k <= z; ++k) {
    if (k > 0) poisson *= lambda / static_cast<double>(k);
    sum += poisson * (1.0 - std::pow(q / p, static_cast<double>(z - k)));
  }
  return 1.0 - sum;
}

double attack_success_monte_carlo(double q, unsigned z, std::size_t trials,
                                  support::Rng& rng,
                                  std::size_t max_blocks) {
  FINDEP_REQUIRE(q >= 0.0 && q <= 1.0);
  FINDEP_REQUIRE(trials > 0);
  if (q == 0.0) return 0.0;
  // One step of the walk: the attacker finds the next block with
  // probability q. The draw is branch-free; see support::Bernoulli.
  const support::Bernoulli attacker(q);
  std::size_t wins = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    // While the merchant waits for z confirmations the attacker pre-mines
    // k ~ Poisson(z q/p) blocks; then it is a biased random walk. As in
    // Nakamoto's analysis, the attacker succeeds when it *catches up*
    // (deficit reaches 0) — gambler's-ruin probability (q/p)^{z-k}.
    const double p = 1.0 - q;
    std::int64_t deficit;  // honest lead
    if (q >= 0.5) {
      deficit = 0;
    } else {
      const double lambda = static_cast<double>(z) * q / p;
      deficit = static_cast<std::int64_t>(z) -
                static_cast<std::int64_t>(rng.poisson(lambda));
    }
    bool win = deficit <= 0;
    for (std::size_t step = 0; !win && step < max_blocks; ++step) {
      deficit += 1 - 2 * static_cast<std::int64_t>(attacker.draw(rng));
      if (deficit <= 0) win = true;
      // Far behind: the walk drifts away; bail out as the closed form's
      // geometric tail does.
      if (deficit > 256) break;
    }
    if (win) ++wins;
  }
  return static_cast<double>(wins) / static_cast<double>(trials);
}

unsigned confirmations_for_risk(double q, double target, unsigned max_z) {
  FINDEP_REQUIRE(target > 0.0 && target < 1.0);
  for (unsigned z = 0; z <= max_z; ++z) {
    if (attack_success_closed_form(q, z) < target) return z;
  }
  return max_z;
}

}  // namespace findep::nakamoto
