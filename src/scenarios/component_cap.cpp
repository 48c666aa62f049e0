// Component-aware committee caps (the enforcement answer to the paper's
// Challenge 2 residual): sweep the per-component cap over a zipf-skewed
// candidate pool and report the exposure actually achieved and the honest
// power the cap discounts. Replaces the hand-rolled cap loop of the old
// component_cap_committee bench; the candidate pool derives from the run
// seed.
#include <string>
#include <vector>

#include "committee/diversity_aware.h"
#include "config/sampler.h"
#include "diversity/metrics.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  /// Max fraction of committee power exposed to one component.
  double component_cap = 1.0;
  /// Max fraction of committee power held by one configuration.
  double config_cap = 0.25;
  std::size_t candidates = 40;
  double zipf_exponent = 1.0;
};

runtime::MetricRecord run_component_cap(const Params& params,
                                        const runtime::RunContext& ctx) {
  crypto::KeyRegistry keys;
  committee::StakeRegistry stake;
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::SamplerOptions opts;
  opts.zipf_exponent = params.zipf_exponent;
  opts.attestable_fraction = 1.0;
  config::ConfigurationSampler sampler(catalog, opts);
  support::Rng rng(ctx.seed);
  std::vector<committee::ParticipantId> everyone;
  for (std::size_t i = 0; i < params.candidates; ++i) {
    const auto kp = crypto::KeyPair::derive(support::mix64(ctx.seed) + i);
    keys.enroll(kp);
    everyone.push_back(stake.add(std::string("p").append(std::to_string(i)),
                                 rng.uniform(1.0, 3.0), sampler.sample(rng),
                                 true, kp.public_key()));
  }

  committee::SelectionPolicy policy;
  policy.per_config_cap = params.config_cap;
  policy.per_component_cap = params.component_cap;
  const committee::Committee c =
      committee::form_committee(stake, everyone, policy);

  runtime::MetricRecord metrics;
  metrics.set("worst_component_exposure", c.worst_component_exposure);
  metrics.set("worst_config_share",
              diversity::berger_parker(c.distribution));
  metrics.set("admitted_power_pct", c.admitted_fraction * 100.0);
  metrics.set("entropy_bits", c.entropy_bits);
  metrics.set("faults_over_third", static_cast<double>(c.bft.min_faults));
  return metrics;
}

const runtime::ScenarioRegistration kComponentCap{{
    .name = "component_cap",
    .description = "component-aware committee caps: worst-component "
                   "exposure vs admitted honest power (§II-C residual)",
    .grids = {runtime::ParamGrid{
        {"cap", {1.0, 0.5, 1.0 / 3.0, 0.25, 0.15, 0.10}},
        {"candidates", {40}},
        {"zipf", {1.0}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.component_cap = p.get_double("cap"),
                          .candidates = p.get_size("candidates"),
                          .zipf_exponent = p.get_double("zipf")};
      FINDEP_REQUIRE(params.component_cap > 0.0 &&
                     params.component_cap <= 1.0);
      FINDEP_REQUIRE(params.config_cap > 0.0 && params.config_cap <= 1.0);
      FINDEP_REQUIRE(params.candidates >= 4);
      return {"component_cap/cap=" +
                  support::Table::format_cell(params.component_cap),
              [params](const runtime::RunContext& ctx) {
                return run_component_cap(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
