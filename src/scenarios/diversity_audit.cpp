// The quickstart scenario: sample a replica population with
// market-share-like popularity skew and report the paper's headline
// diversity quantities (§IV-A). Doubles as the smallest example of
// writing a scenario family — see README "Running experiments".
#include <string>
#include <vector>

#include "config/sampler.h"
#include "diversity/analyzer.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  std::size_t replicas = 32;
  double zipf_exponent = 1.0;        // market-share-like skew
  double attestable_fraction = 0.5;  // half the replicas have a TEE
};

runtime::MetricRecord run_diversity_audit(const Params& params,
                                          const runtime::RunContext& ctx) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::SamplerOptions options;
  options.zipf_exponent = params.zipf_exponent;
  options.attestable_fraction = params.attestable_fraction;
  config::ConfigurationSampler sampler(catalog, options);

  support::Rng rng(ctx.seed);
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.sample_population(rng, params.replicas)) {
    population.push_back(
        diversity::ReplicaRecord{cfg, 1.0, cfg.is_attestable()});
  }

  // One analyze() call covers everything; it is memoized across scenario
  // instances sharing a population (see DiversityAnalyzer).
  const diversity::DiversityReport report =
      diversity::DiversityAnalyzer::analyze(population);

  runtime::MetricRecord metrics;
  metrics.set("entropy_bits", report.entropy_bits);
  metrics.set("max_entropy_bits", report.max_entropy_bits);
  metrics.set("kappa_optimal",
              report.max_entropy_bits - report.entropy_bits < 1e-9 ? 1.0
                                                                   : 0.0);
  metrics.set("faults_over_third",
              static_cast<double>(report.bft.min_faults));
  metrics.set("worst_component_pct",
              report.worst_overall.has_value()
                  ? report.worst_overall->power_fraction * 100.0
                  : 0.0);
  return metrics;
}

const runtime::ScenarioRegistration kDiversityAudit{{
    .name = "diversity_audit",
    .description = "quickstart: diversity of a sampled replica population "
                   "(§IV-A headline quantities)",
    .grids = {runtime::ParamGrid{
        {"replicas", {32}},
        {"zipf", {1.0}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.replicas = p.get_size("replicas"),
                          .zipf_exponent = p.get_double("zipf")};
      FINDEP_REQUIRE(params.replicas > 0);
      return {"diversity_audit/n=" + std::to_string(params.replicas) +
                  " zipf=" + support::Table::format_cell(params.zipf_exponent),
              [params](const runtime::RunContext& ctx) {
                return run_diversity_audit(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
