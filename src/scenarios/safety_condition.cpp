// Safety-condition Monte-Carlo scenario (§II-C, f ≥ Σ f_t^i): for one
// population skew, the probability that k random component faults push
// compromised voting power past the BFT third / honest majority. The
// population *and* the fault draws derive from the run seed, so a sweep
// measures the spread over independent populations — which the old bench
// driver (one hardcoded population per cell) could not.
#include <string>
#include <vector>

#include "config/sampler.h"
#include "diversity/analyzer.h"
#include "diversity/metrics.h"
#include "diversity/resilience.h"
#include "faults/injector.h"
#include "runtime/registry.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  double zipf_exponent = 1.0;
  std::size_t replicas = 100;
  std::size_t trials = 2000;
};

runtime::MetricRecord run_safety_condition(const Params& params,
                                           const runtime::RunContext& ctx) {
  support::Rng rng(ctx.seed);
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::SamplerOptions options;
  options.zipf_exponent = params.zipf_exponent;
  options.attestable_fraction = 0.5;
  config::ConfigurationSampler sampler(catalog, options);

  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg :
       sampler.sample_population(rng, params.replicas)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  const double entropy = diversity::shannon_entropy(
      diversity::DiversityAnalyzer::distribution_of(population));

  faults::FaultInjector injector(population);
  support::Rng mc = rng.fork(1);

  runtime::MetricRecord metrics;
  metrics.set("entropy_bits", entropy);
  metrics.set("p_third_k1",
              injector.break_probability(1, diversity::kBftThreshold,
                                         params.trials, mc));
  metrics.set("p_third_k2",
              injector.break_probability(2, diversity::kBftThreshold,
                                         params.trials, mc));
  metrics.set("p_third_k4",
              injector.break_probability(4, diversity::kBftThreshold,
                                         params.trials, mc));
  metrics.set("p_half_k4",
              injector.break_probability(4, diversity::kNakamotoThreshold,
                                         params.trials, mc));
  metrics.set("worst_k1",
              injector.worst_case_components(1).compromised_fraction);
  return metrics;
}

const runtime::ScenarioRegistration kSafetyCondition{{
    .name = "safety_condition",
    .description = "§II-C Monte-Carlo: P[compromise > threshold] under k "
                   "random component faults vs population skew",
    .grids = {runtime::ParamGrid{
        {"zipf", {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}},
        {"replicas", {100}},
        {"trials", {2000}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.zipf_exponent = p.get_double("zipf"),
                          .replicas = p.get_size("replicas"),
                          .trials = p.get_size("trials")};
      return {"safety_condition/zipf=" +
                  support::Table::format_cell(params.zipf_exponent),
              [params](const runtime::RunContext& ctx) {
                return run_safety_condition(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
