#include "config/sampler.h"

#include <numeric>

#include "support/assert.h"

namespace findep::config {

ConfigurationSampler::ConfigurationSampler(const ComponentCatalog& catalog,
                                           SamplerOptions options)
    : catalog_(&catalog), options_(options) {
  FINDEP_REQUIRE(options.zipf_exponent >= 0.0);
  FINDEP_REQUIRE(options.attestable_fraction >= 0.0 &&
                 options.attestable_fraction <= 1.0);
  for (const ComponentKind kind : all_component_kinds()) {
    const std::size_t variety = catalog.variety(kind);
    FINDEP_REQUIRE_MSG(variety > 0 || kind == ComponentKind::kTrustedHardware,
                       "catalog must offer every mandatory kind");
    if (variety > 0) {
      ranks_[static_cast<std::size_t>(kind)].emplace(variety,
                                                    options.zipf_exponent);
    }
  }
}

ReplicaConfiguration ConfigurationSampler::sample(support::Rng& rng) const {
  ReplicaConfiguration cfg;
  for (const ComponentKind kind : all_component_kinds()) {
    const auto choices = catalog_->of_kind(kind);
    if (kind == ComponentKind::kTrustedHardware) {
      if (choices.empty() || !rng.chance(options_.attestable_fraction)) {
        continue;
      }
    }
    const auto& ranks = ranks_[static_cast<std::size_t>(kind)];
    FINDEP_ASSERT(ranks.has_value() && ranks->size() == choices.size());
    cfg.set(*catalog_, choices[ranks->draw(rng)]);
  }
  FINDEP_ENSURE(cfg.is_complete());
  return cfg;
}

std::vector<ReplicaConfiguration> ConfigurationSampler::sample_population(
    support::Rng& rng, std::size_t n) const {
  std::vector<ReplicaConfiguration> population;
  population.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    population.push_back(sample(rng));
  }
  return population;
}

std::vector<ReplicaConfiguration>
ConfigurationSampler::distinct_configurations(std::size_t count) const {
  // Configurations i and j coincide iff (j - i) is divisible by every
  // kind's variety, i.e. by their lcm — so distinctness holds up to lcm.
  std::size_t lcm = 1;
  for (const ComponentKind kind : all_component_kinds()) {
    const std::size_t v = catalog_->variety(kind);
    if (v > 0) lcm = std::lcm(lcm, v);
  }
  FINDEP_REQUIRE_MSG(count <= lcm,
                     "catalog too small for this many distinct configs");
  std::vector<ReplicaConfiguration> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ReplicaConfiguration cfg;
    for (const ComponentKind kind : all_component_kinds()) {
      const auto choices = catalog_->of_kind(kind);
      if (choices.empty()) continue;
      cfg.set(*catalog_, choices[i % choices.size()]);
    }
    out.push_back(cfg);
  }
  return out;
}

}  // namespace findep::config
