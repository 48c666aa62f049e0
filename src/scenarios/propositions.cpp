// Propositions 1–3 (§IV-B) as scenario families, replacing the three
// hand-rolled prop* bench drivers:
//  - prop1_entropy: abundance growth vs entropy for a κ-optimal base.
//  - prop2_unique: dust-weight unique replicas added to the Bitcoin
//    oligopoly vs the uniform control.
//  - prop3_abundance: abundance ω vs the operator / vulnerability
//    adversaries (analytic and injected).
//  - prop3_cost: the cost side — measured PBFT messages per request vs
//    cluster size, against the (n/4)² reference.
#include <cmath>
#include <string>
#include <vector>

#include "config/sampler.h"
#include "diversity/datasets.h"
#include "diversity/metrics.h"
#include "diversity/propositions.h"
#include "diversity/resilience.h"
#include "faults/adversary.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

// --- Proposition 1 ---------------------------------------------------------

/// Proposition 1 at one growth skew (max/min growth factor across the
/// support): uniform growth preserves entropy, skewed growth strictly
/// loses bits.
runtime::MetricRecord run_prop1(double skew, std::size_t kappa) {
  const diversity::ConfigDistribution base =
      diversity::ConfigDistribution::uniform(kappa);

  // Uniform growth: every configuration ×2.
  const diversity::Prop1Result uniform = diversity::check_proposition1(
      base, std::vector<double>(kappa, 2.0));
  // Skewed growth: configuration i grows by 1 + (skew-1)·i/(κ-1).
  std::vector<double> growth(kappa);
  for (std::size_t i = 0; i < kappa; ++i) {
    growth[i] = 1.0 + (skew - 1.0) * static_cast<double>(i) /
                      static_cast<double>(kappa - 1);
  }
  const diversity::Prop1Result skewed =
      diversity::check_proposition1(base, growth);

  runtime::MetricRecord metrics;
  metrics.set("h_uniform_growth", uniform.entropy_after);
  metrics.set("h_skewed_growth", skewed.entropy_after);
  metrics.set("entropy_lost_bits",
              skewed.entropy_before - skewed.entropy_after);
  metrics.set("prop1_holds", uniform.holds() && skewed.holds() ? 1.0 : 0.0);
  return metrics;
}

// --- Proposition 2 ---------------------------------------------------------

/// Proposition 2 at one extension size (`extra` dust-weight unique miners
/// added to the 17-pool snapshot): the oligopoly's entropy saturates
/// while the uniform control tracks log2(k).
runtime::MetricRecord run_prop2(std::size_t extra) {
  const diversity::ConfigDistribution oligopoly =
      diversity::datasets::bitcoin_best_case_distribution(extra);
  const std::size_t k = oligopoly.support_size();
  const diversity::ConfigDistribution uniform =
      diversity::ConfigDistribution::uniform(k);

  runtime::MetricRecord metrics;
  metrics.set("replicas_k", static_cast<double>(k));
  metrics.set("h_oligopoly", diversity::shannon_entropy(oligopoly));
  metrics.set("log2_k_optimum", std::log2(static_cast<double>(k)));
  metrics.set("gap_bits", diversity::kl_from_uniform(oligopoly));
  metrics.set("h_uniform_control", diversity::shannon_entropy(uniform));
  metrics.set("faults_over_third_oligopoly",
              static_cast<double>(diversity::min_faults_to_exceed(
                  oligopoly, diversity::kBftThreshold)));
  metrics.set("faults_over_third_uniform",
              static_cast<double>(diversity::min_faults_to_exceed(
                  uniform, diversity::kBftThreshold)));
  return metrics;
}

// --- Proposition 3, adversary side -----------------------------------------

/// Builds a (κ, ω) population: κ distinct configurations, ω independent
/// operators per configuration, one replica each.
faults::OperatedPopulation kappa_omega_population(std::size_t kappa,
                                                  std::size_t omega) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  const auto configs = sampler.distinct_configurations(kappa);
  faults::OperatedPopulation pop;
  faults::OperatorId next_operator = 0;
  for (std::size_t c = 0; c < kappa; ++c) {
    for (std::size_t o = 0; o < omega; ++o) {
      pop.replicas.push_back(
          diversity::ReplicaRecord{configs[c], 1.0, true});
      pop.operator_of.push_back(next_operator++);
    }
  }
  return pop;
}

/// Proposition 3 at one abundance ω: worst-case operator defection vs one
/// component fault over a (κ, ω) population, next to the analytic values.
runtime::MetricRecord run_prop3(std::size_t omega, std::size_t kappa) {
  const auto pop = kappa_omega_population(kappa, omega);
  faults::FaultInjector injector(pop.replicas);
  const double op_fraction =
      faults::OperatorAdversary{1}.attack(pop).compromised_fraction;
  const double vuln_fraction =
      injector.worst_case_components(1).compromised_fraction;
  const diversity::Prop3Result analytic =
      diversity::analyze_proposition3(kappa, omega);

  runtime::MetricRecord metrics;
  metrics.set("replicas", static_cast<double>(pop.replicas.size()));
  metrics.set("one_operator_defects", op_fraction);
  metrics.set("one_component_fault", vuln_fraction);
  metrics.set("analytic_operator", analytic.operator_fraction);
  metrics.set("analytic_vulnerability", analytic.vulnerability_fraction);
  return metrics;
}

// --- Proposition 3, cost side ----------------------------------------------

/// Client requests per measured cluster.
constexpr int kProp3CostRequests = 3;

std::uint64_t measured_messages(std::size_t n, int requests,
                                std::uint64_t seed) {
  replication::ClusterOptions opt;
  opt.seed = seed;
  replication::Cluster cluster(n, opt);
  for (int i = 0; i < requests; ++i) cluster.submit();
  cluster.run_until_executed(static_cast<std::size_t>(requests), 120.0);
  return cluster.network().stats().messages_sent /
         static_cast<std::uint64_t>(requests);
}

/// Proposition 3's price: measured PBFT messages per request at cluster
/// size n (= κω), compared against quadratic growth from n = 4.
runtime::MetricRecord run_prop3_cost(std::size_t n,
                                     const runtime::RunContext& ctx) {
  // Each instance re-measures its own n=4 baseline so ratio_to_n4 is a
  // self-contained per-seed metric; the extra n=4 cluster is a few
  // dozen simulated messages, noise next to the n-sized run.
  const std::uint64_t base =
      measured_messages(4, kProp3CostRequests, ctx.seed);
  const std::uint64_t msgs =
      n == 4 ? base : measured_messages(n, kProp3CostRequests, ctx.seed);
  const double quad =
      (static_cast<double>(n) / 4.0) * (static_cast<double>(n) / 4.0);

  runtime::MetricRecord metrics;
  metrics.set("msgs_per_request", static_cast<double>(msgs));
  metrics.set("ratio_to_n4",
              static_cast<double>(msgs) / static_cast<double>(base));
  metrics.set("quadratic_reference", quad);
  return metrics;
}

// --- registrations ---------------------------------------------------------

const runtime::ScenarioRegistration kProp1{{
    .name = "prop1_entropy",
    .description = "Prop. 1: non-uniform abundance growth strictly loses "
                   "entropy, uniform growth preserves it (κ = 16)",
    .grids = {runtime::ParamGrid{
        {"skew", {1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 16.0, 32.0}},
        {"kappa", {16}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const double skew = p.get_double("skew");
      const std::size_t kappa = p.get_size("kappa");
      FINDEP_REQUIRE(skew >= 1.0);
      FINDEP_REQUIRE(kappa >= 2);
      return {"prop1_entropy/skew=" + support::Table::format_cell(skew),
              [skew, kappa](const runtime::RunContext&) {
                return run_prop1(skew, kappa);
              }};
    },
}};

const runtime::ScenarioRegistration kProp2{{
    .name = "prop2_unique",
    .description = "Prop. 2: dust-weight unique miners don't buy the "
                   "Bitcoin oligopoly any resilience",
    .grids = {runtime::ParamGrid{
        {"extra", {1, 10, 100, 1000, 10000}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::size_t extra = p.get_size("extra");
      return {"prop2_unique/extra=" + std::to_string(extra),
              [extra](const runtime::RunContext&) { return run_prop2(extra); }};
    },
}};

const runtime::ScenarioRegistration kProp3{{
    .name = "prop3_abundance",
    .description = "Prop. 3: abundance ω dilutes operator power (1/κω) "
                   "but not vulnerability blast radius (1/κ)",
    .grids = {runtime::ParamGrid{
        {"omega", {1, 2, 4, 8, 16}},
        {"kappa", {8}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::size_t omega = p.get_size("omega");
      const std::size_t kappa = p.get_size("kappa");
      FINDEP_REQUIRE(omega >= 1);
      FINDEP_REQUIRE(kappa >= 1);
      return {"prop3_abundance/omega=" + std::to_string(omega),
              [omega, kappa](const runtime::RunContext&) {
                return run_prop3(omega, kappa);
              }};
    },
}};

const runtime::ScenarioRegistration kProp3Cost{{
    .name = "prop3_cost",
    .description = "Prop. 3 cost side: measured PBFT messages per request "
                   "vs cluster size κω, against (n/4)²",
    .grids = {runtime::ParamGrid{
        {"n", {4, 8, 12, 16, 24}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::size_t n = p.get_size("n");
      FINDEP_REQUIRE(n >= 4);
      return {"prop3_cost/n=" + std::to_string(n),
              [n](const runtime::RunContext& ctx) {
                return run_prop3_cost(n, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
