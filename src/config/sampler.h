// Samplers producing replica-configuration populations.
//
// Real deployments are not uniform over the configuration space: component
// popularity is heavily skewed (one OS and one full-node implementation
// dominate). The sampler models this with a per-kind Zipf exponent so
// experiments can sweep from monoculture (large s) to uniform diversity
// (s = 0), which directly moves the entropy measured by the core library.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "config/catalog.h"
#include "config/replica_config.h"
#include "support/rng.h"

namespace findep::config {

/// Skew model for sampling: popularity rank r of a component within its
/// kind gets probability ∝ 1/r^s.
struct SamplerOptions {
  /// Zipf exponent per kind. 0 = uniform; ≈1 matches observed software
  /// market shares; ≥2 is near-monoculture.
  double zipf_exponent = 1.0;
  /// Probability that a replica has any trusted hardware at all.
  double attestable_fraction = 0.5;
};

/// Draws complete replica configurations from a catalog. The Zipf table
/// of every kind the catalog offers is built once, at construction.
class ConfigurationSampler {
 public:
  ConfigurationSampler(const ComponentCatalog& catalog,
                       SamplerOptions options);

  /// Samples one complete configuration.
  [[nodiscard]] ReplicaConfiguration sample(support::Rng& rng) const;

  /// Samples a population of n configurations.
  [[nodiscard]] std::vector<ReplicaConfiguration> sample_population(
      support::Rng& rng, std::size_t n) const;

  /// Enumerates `count` maximally-distinct configurations by Latin-square
  /// rotation through each kind's variants: configuration i takes variant
  /// (i mod variety) of every kind. Adjacent configurations share no
  /// component when count <= min variety; used to construct κ-optimal
  /// populations for the Definition-1 experiments.
  [[nodiscard]] std::vector<ReplicaConfiguration> distinct_configurations(
      std::size_t count) const;

  [[nodiscard]] const ComponentCatalog& catalog() const noexcept {
    return *catalog_;
  }

 private:
  const ComponentCatalog* catalog_;  // non-owning; outlives the sampler
  SamplerOptions options_;
  /// Rank table per kind, by kind value; empty for a kind with no variety.
  std::array<std::optional<support::ZipfTable>, kComponentKindCount> ranks_;
};

}  // namespace findep::config
