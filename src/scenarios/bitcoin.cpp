// Bitcoin-snapshot scenarios (Example 1 / Figure 1 of the paper), built
// on the 2023-02-02 mining-pool distribution:
//  - example1_entropy: the snapshot vs uniform BFT systems of growing
//    size (Example 1's table).
//  - fig1_entropy: best-case entropy as the residual hashrate spreads
//    over x extra miners (Figure 1's curve).
//  - bitcoin_audit: the end-to-end audit — entropy, worst shared
//    component under realistic software monoculture, the double-spend
//    success that hashrate buys, and what a weight cap would recover.
#include <cmath>
#include <string>

#include "config/catalog.h"
#include "diversity/datasets.h"
#include "diversity/manager.h"
#include "diversity/metrics.h"
#include "diversity/optimality.h"
#include "diversity/resilience.h"
#include "faults/injector.h"
#include "nakamoto/attack.h"
#include "nakamoto/pools.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

// --- example1_entropy ------------------------------------------------------

/// One row of Example 1's comparison table: either the Bitcoin snapshot
/// (`uniform = false`, n = residual miners) or a uniform BFT system of n
/// configurations.
runtime::MetricRecord run_example1(bool uniform, std::size_t n) {
  const diversity::ConfigDistribution dist =
      uniform ? diversity::ConfigDistribution::uniform(n)
              : diversity::datasets::bitcoin_best_case_distribution(n);

  runtime::MetricRecord metrics;
  metrics.set("configs", static_cast<double>(dist.support_size()));
  metrics.set("entropy_bits", diversity::shannon_entropy(dist));
  metrics.set("faults_over_third",
              static_cast<double>(diversity::min_faults_to_exceed(
                  dist, diversity::kBftThreshold)));
  metrics.set("faults_over_half",
              static_cast<double>(diversity::min_faults_to_exceed(
                  dist, diversity::kNakamotoThreshold)));
  return metrics;
}

// --- fig1_entropy ----------------------------------------------------------

/// One x-point of Figure 1: best-case entropy with the residual 0.87%
/// hashrate spread over x additional unique miners.
runtime::MetricRecord run_fig1(std::size_t x) {
  const diversity::ConfigDistribution dist =
      diversity::datasets::bitcoin_best_case_distribution(x);
  const double h = diversity::shannon_entropy(dist);

  runtime::MetricRecord metrics;
  metrics.set("miners_total",
              static_cast<double>(x +
                                  diversity::datasets::kBitcoinPoolCount));
  metrics.set("entropy_bits", h);
  metrics.set("effective_configs", std::exp2(h));
  metrics.set("gap_to_bft8_bits", 3.0 - h);
  return metrics;
}

// --- bitcoin_audit ---------------------------------------------------------

struct AuditParams {
  std::size_t residual_miners = 101;
  /// Per-configuration voting cap evaluated in the final step.
  double cap = 0.10;
};

/// The Example-1 audit end to end, including the attack the numbers
/// predict and the recovery a weight cap buys. The realistic (monocultural)
/// software assignment derives from the run seed.
runtime::MetricRecord run_bitcoin_audit(const AuditParams& params,
                                        const runtime::RunContext& ctx) {
  // Step 1: the best-case distribution (every pool a unique config).
  const diversity::ConfigDistribution bitcoin =
      diversity::datasets::bitcoin_best_case_distribution(
          params.residual_miners);
  const double h = diversity::shannon_entropy(bitcoin);
  const std::size_t faults_third =
      diversity::min_faults_to_exceed(bitcoin, diversity::kBftThreshold);

  // Step 2: drop the best case — realistic Zipf-skewed software stacks
  // (seeded per run), worst shared component.
  const config::ComponentCatalog catalog = config::standard_catalog();
  const nakamoto::PoolSet pools = nakamoto::PoolSet::example1(
      catalog, /*distinct_configs=*/false, ctx.seed);
  faults::FaultInjector injector(pools.as_population());
  const faults::CompromiseResult worst = injector.worst_case_components(1);
  const double q = worst.compromised_fraction;

  // Step 4: the recovery a per-configuration weight cap buys.
  const diversity::CappedDistribution capped =
      diversity::WeightCapPolicy(params.cap).apply(bitcoin);

  runtime::MetricRecord metrics;
  metrics.set("entropy_bits", h);
  metrics.set("effective_configs", std::exp2(h));
  metrics.set("faults_over_third", static_cast<double>(faults_third));
  metrics.set("faults_over_half",
              static_cast<double>(diversity::min_faults_to_exceed(
                  bitcoin, diversity::kNakamotoThreshold)));
  metrics.set("worst_1fault_share", q);
  // Step 3: what that hashrate buys the attacker.
  metrics.set("attack_z6", nakamoto::attack_success_closed_form(q, 6));
  metrics.set("attack_z24", nakamoto::attack_success_closed_form(q, 24));
  metrics.set("capped_entropy_bits",
              diversity::shannon_entropy(capped.distribution));
  metrics.set("capped_retained_pct", capped.retained_fraction * 100.0);
  metrics.set("capped_faults_over_third",
              static_cast<double>(diversity::min_faults_to_exceed(
                  capped.distribution, diversity::kBftThreshold)));
  return metrics;
}

// --- registrations ---------------------------------------------------------

const runtime::ScenarioRegistration kExample1{{
    .name = "example1_entropy",
    .description = "Example 1: the 2023-02-02 Bitcoin snapshot vs uniform "
                   "BFT systems of growing size",
    .grids =
        {
            runtime::ParamGrid{{"uniform", {false}}, {"n", {101}}},
            runtime::ParamGrid{{"uniform", {true}},
                               {"n", {4, 8, 16, 32, 64, 128}}},
        },
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const bool uniform = p.get_bool("uniform");
      const std::size_t n = p.get_size("n");
      return {uniform ? "example1_entropy/uniform n=" + std::to_string(n)
                      : "example1_entropy/bitcoin x=" + std::to_string(n),
              [uniform, n](const runtime::RunContext&) {
                return run_example1(uniform, n);
              }};
    },
}};

const runtime::ScenarioRegistration kFig1{{
    .name = "fig1_entropy",
    .description = "Figure 1: best-case Bitcoin entropy vs residual-miner "
                   "count x (saturates below BFT-8's 3 bits)",
    .grids = {runtime::ParamGrid{
        {"x", {1, 2, 5, 10, 20, 50, 101, 200, 300, 400, 500, 600, 700, 800,
               900, 1000}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::size_t x = p.get_size("x");
      FINDEP_REQUIRE(x >= 1);
      return {"fig1_entropy/x=" + std::to_string(x),
              [x](const runtime::RunContext&) { return run_fig1(x); }};
    },
}};

const runtime::ScenarioRegistration kBitcoinAudit{{
    .name = "bitcoin_audit",
    .description = "Example 1 end to end: audit, worst shared component, "
                   "double-spend odds, weight-cap recovery",
    .grids = {runtime::ParamGrid{
        {"cap", {0.10}},
        {"residual_miners", {101}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const AuditParams params{
          .residual_miners = p.get_size("residual_miners"),
          .cap = p.get_double("cap")};
      FINDEP_REQUIRE(params.residual_miners >= 1);
      FINDEP_REQUIRE(params.cap > 0.0 && params.cap <= 1.0);
      return {"bitcoin_audit/cap=" + support::Table::format_cell(params.cap),
              [params](const runtime::RunContext& ctx) {
                return run_bitcoin_audit(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
