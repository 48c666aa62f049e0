// Fault injection: who falls when a vulnerability is exploited.
//
// The injector maps exploited vulnerabilities onto a replica population:
// every replica whose configuration contains the vulnerable component is
// compromised (subject to the exploit's per-replica success probability).
// This realizes the paper's correlated-failure mechanism — "a single fault
// affecting multiple machines" (§I) — and provides the Monte-Carlo
// machinery behind the safety-condition experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "diversity/analyzer.h"
#include "faults/vulnerability.h"

namespace findep::faults {

/// Result of injecting a set of faults into a population.
struct CompromiseResult {
  /// Indices (into the population) of compromised replicas.
  std::vector<std::size_t> compromised;
  /// Total voting power compromised.
  double compromised_power = 0.0;
  /// Fraction of total population power compromised — the Σ f_t^i of the
  /// safety condition, normalized.
  double compromised_fraction = 0.0;
  /// Number of distinct faults that contributed (k_t).
  std::size_t faults_used = 0;
  /// The components worst_case_components exploited, in pick order
  /// (empty for every other producer).
  std::vector<config::ComponentId> components;

  [[nodiscard]] bool breaks(double threshold) const noexcept {
    return compromised_fraction > threshold;
  }
};

/// Injects component faults into a fixed population.
class FaultInjector {
 public:
  explicit FaultInjector(std::vector<diversity::ReplicaRecord> population);

  [[nodiscard]] const std::vector<diversity::ReplicaRecord>& population()
      const noexcept {
    return population_;
  }
  [[nodiscard]] double total_power() const noexcept { return total_power_; }

  /// Deterministic worst-case: compromise every replica exposed to any of
  /// `components` (exploitability treated as 1).
  [[nodiscard]] CompromiseResult inject_components(
      std::span<const config::ComponentId> components) const;

  /// Stochastic: exploit the given vulnerabilities at time `t`; a replica
  /// exposed to an open vulnerability falls with that vulnerability's
  /// exploitability.
  [[nodiscard]] CompromiseResult inject_vulnerabilities(
      const VulnerabilityCatalog& catalog, std::span<const VulnId> vulns,
      double t, support::Rng& rng) const;

  /// Greedy worst-case attacker with a budget of `k` component faults:
  /// repeatedly exploits the component adding the most not-yet-compromised
  /// power. (Optimal coverage is NP-hard; greedy gives the standard
  /// (1−1/e) guarantee and matches how the paper reasons about top-k
  /// shares.)
  [[nodiscard]] CompromiseResult worst_case_components(std::size_t k) const;

  /// Monte-Carlo probability that `k` *uniformly random distinct*
  /// component faults (among components actually present in the
  /// population) compromise more than `threshold` of the power. Each call
  /// builds one bitmask per present component, a bit per replica running
  /// it; a trial ORs the masks of its picks and adds the power of the set
  /// bits in ascending replica order, as a scan of the population would,
  /// and allocates nothing.
  [[nodiscard]] double break_probability(std::size_t k, double threshold,
                                         std::size_t trials,
                                         support::Rng& rng) const;

  /// Components present in the population (deduplicated).
  [[nodiscard]] const std::vector<config::ComponentId>& present_components()
      const noexcept {
    return components_;
  }

 private:
  [[nodiscard]] CompromiseResult finalize(
      std::vector<bool>& hit, std::size_t faults_used) const;

  std::vector<diversity::ReplicaRecord> population_;
  double total_power_ = 0.0;
  std::vector<config::ComponentId> components_;
  /// exposure_[c] = indices of replicas exposed to component c (by dense
  /// position in components_).
  std::vector<std::vector<std::size_t>> exposure_;
};

}  // namespace findep::faults
