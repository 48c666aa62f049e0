// Two-tier voting scenario (§V): mix attested and non-attested replicas,
// weight attested replicas by α, and measure the resilience of the
// effective voting-power distribution. Replaces the fraction × α loops of
// the old two_tier_resilience bench; the population now derives from the
// run seed, so a sweep shows the population-to-population spread the
// single hardcoded draw hid.
#include <string>
#include <vector>

#include "config/sampler.h"
#include "diversity/analyzer.h"
#include "diversity/manager.h"
#include "diversity/metrics.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  double attested_fraction = 0.5;
  double alpha = 2.0;  // attested weight multiplier
  std::size_t replicas = 60;
};

/// The mixed population is a function of (replicas, attested_fraction,
/// seed) only — all α instances of one fraction share it, which is what
/// makes the analyzer's population memoization (ROADMAP hot path) pay.
std::vector<diversity::ReplicaRecord> mixed_population(
    std::size_t replicas, double attested_fraction, std::uint64_t seed) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::SamplerOptions opts;
  opts.zipf_exponent = 0.5;
  opts.attestable_fraction = 1.0;
  config::ConfigurationSampler sampler(catalog, opts);
  support::Rng rng(seed);
  std::vector<diversity::ReplicaRecord> population;
  population.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    diversity::ReplicaRecord rec{sampler.sample(rng), 1.0,
                                 rng.chance(attested_fraction)};
    if (!rec.attested) {
      rec.configuration.clear(config::ComponentKind::kTrustedHardware);
    }
    population.push_back(std::move(rec));
  }
  return population;
}

runtime::MetricRecord run_two_tier(const Params& params,
                                   const runtime::RunContext& ctx) {
  const auto population =
      mixed_population(params.replicas, params.attested_fraction, ctx.seed);

  // Baseline diversity of the raw population (memoized across the α
  // instances sharing this population).
  const diversity::DiversityReport report =
      diversity::DiversityAnalyzer::analyze(population);
  const diversity::TwoTierOutcome out =
      diversity::TwoTierPolicy(params.alpha).apply(population);

  runtime::MetricRecord metrics;
  metrics.set("unknown_share_pct", out.unknown_share * 100.0);
  metrics.set("h_effective_bits", diversity::shannon_entropy(out.effective));
  metrics.set("h_population_bits", report.entropy_bits);
  metrics.set("faults_over_third",
              static_cast<double>(out.bft.min_faults));
  metrics.set("single_point_of_failure",
              out.bft.single_point_of_failure ? 1.0 : 0.0);
  return metrics;
}

const runtime::ScenarioRegistration kTwoTier{{
    .name = "two_tier",
    .description = "attested-weight two-tier voting: α vs resilience of "
                   "the effective distribution (§V)",
    .grids = {runtime::ParamGrid{
        {"attested_fraction", {0.25, 0.5, 0.75}},
        {"alpha", {1.0, 2.0, 4.0, 8.0}},
        {"replicas", {60}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{
          .attested_fraction = p.get_double("attested_fraction"),
          .alpha = p.get_double("alpha"),
          .replicas = p.get_size("replicas")};
      FINDEP_REQUIRE(params.replicas > 0);
      FINDEP_REQUIRE(params.attested_fraction >= 0.0 &&
                     params.attested_fraction <= 1.0);
      FINDEP_REQUIRE(params.alpha >= 1.0);
      return {"two_tier/attested=" +
                  support::Table::format_cell(params.attested_fraction) +
                  " alpha=" + support::Table::format_cell(params.alpha),
              [params](const runtime::RunContext& ctx) {
                return run_two_tier(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
