#include "faults/injector.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "support/assert.h"

namespace findep::faults {

FaultInjector::FaultInjector(
    std::vector<diversity::ReplicaRecord> population)
    : population_(std::move(population)) {
  FINDEP_REQUIRE(!population_.empty());
  std::unordered_map<config::ComponentId, std::size_t> index;
  for (std::size_t r = 0; r < population_.size(); ++r) {
    const auto& rec = population_[r];
    FINDEP_REQUIRE(rec.power >= 0.0);
    total_power_ += rec.power;
    for (const config::ComponentId comp : rec.configuration.components()) {
      const auto [it, inserted] = index.try_emplace(comp, components_.size());
      if (inserted) {
        components_.push_back(comp);
        exposure_.emplace_back();
      }
      exposure_[it->second].push_back(r);
    }
  }
  FINDEP_REQUIRE_MSG(total_power_ > 0.0,
                     "population must carry positive voting power");
}

CompromiseResult FaultInjector::finalize(std::vector<bool>& hit,
                                         std::size_t faults_used) const {
  CompromiseResult out;
  out.faults_used = faults_used;
  for (std::size_t r = 0; r < population_.size(); ++r) {
    if (!hit[r]) continue;
    out.compromised.push_back(r);
    out.compromised_power += population_[r].power;
  }
  out.compromised_fraction = out.compromised_power / total_power_;
  return out;
}

CompromiseResult FaultInjector::inject_components(
    std::span<const config::ComponentId> components) const {
  std::vector<bool> hit(population_.size(), false);
  std::size_t used = 0;
  for (const config::ComponentId target : components) {
    const auto it = std::find(components_.begin(), components_.end(), target);
    ++used;
    if (it == components_.end()) continue;  // component not in population
    const auto dense = static_cast<std::size_t>(it - components_.begin());
    for (const std::size_t r : exposure_[dense]) hit[r] = true;
  }
  return finalize(hit, used);
}

CompromiseResult FaultInjector::inject_vulnerabilities(
    const VulnerabilityCatalog& catalog, std::span<const VulnId> vulns,
    double t, support::Rng& rng) const {
  std::vector<bool> hit(population_.size(), false);
  std::size_t used = 0;
  for (const VulnId vid : vulns) {
    const Vulnerability& v = catalog.get(vid);
    if (!v.window_open(t)) continue;
    const auto it =
        std::find(components_.begin(), components_.end(), v.component);
    ++used;
    if (it == components_.end()) continue;
    const auto dense = static_cast<std::size_t>(it - components_.begin());
    for (const std::size_t r : exposure_[dense]) {
      if (hit[r]) continue;
      if (rng.chance(v.exploitability)) hit[r] = true;
    }
  }
  return finalize(hit, used);
}

CompromiseResult FaultInjector::worst_case_components(std::size_t k) const {
  std::vector<bool> hit(population_.size(), false);
  std::vector<bool> used_component(components_.size(), false);
  std::vector<config::ComponentId> picked;

  for (std::size_t round = 0; round < k; ++round) {
    double best_gain = -1.0;
    std::size_t best = components_.size();
    for (std::size_t c = 0; c < components_.size(); ++c) {
      if (used_component[c]) continue;
      double gain = 0.0;
      for (const std::size_t r : exposure_[c]) {
        if (!hit[r]) gain += population_[r].power;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == components_.size() || best_gain <= 0.0) break;
    used_component[best] = true;
    picked.push_back(components_[best]);
    for (const std::size_t r : exposure_[best]) hit[r] = true;
  }
  CompromiseResult out = finalize(hit, picked.size());
  out.components = std::move(picked);
  return out;
}

double FaultInjector::break_probability(std::size_t k, double threshold,
                                        std::size_t trials,
                                        support::Rng& rng) const {
  FINDEP_REQUIRE(trials > 0);
  const std::size_t pool = components_.size();
  const std::size_t draw = std::min(k, pool);
  // One bitmask per present component, a bit per replica running it.
  const std::size_t words = (population_.size() + 63) / 64;
  std::vector<std::uint64_t> masks(pool * words, 0);
  for (std::size_t c = 0; c < pool; ++c) {
    for (const std::size_t r : exposure_[c]) {
      masks[c * words + r / 64] |= std::uint64_t{1} << (r % 64);
    }
  }
  std::vector<std::size_t> picks;
  std::vector<std::uint64_t> hit(words);
  std::size_t breaks = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    rng.sample_indices(pool, draw, picks);
    std::fill(hit.begin(), hit.end(), 0);
    for (const std::size_t c : picks) {
      for (std::size_t w = 0; w < words; ++w) hit[w] |= masks[c * words + w];
    }
    // Set bits in ascending replica order: the order a scan over the
    // population adds in, so the sum is the same double.
    double power = 0.0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = hit[w]; bits != 0; bits &= bits - 1) {
        power += population_[w * 64 + std::countr_zero(bits)].power;
      }
    }
    if (power / total_power_ > threshold) ++breaks;
  }
  return static_cast<double>(breaks) / static_cast<double>(trials);
}

}  // namespace findep::faults
