// Nakamoto-substrate scenarios: fork rate vs propagation delay, the
// double-spend race (closed form cross-validated by a seeded Monte-Carlo),
// and the pool-software compromise pipeline (one component fault → the
// combined hashrate of every pool sharing it → double-spend success).
// Replaces the setup loops of the old nakamoto_attack bench driver.
#include <stdexcept>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "faults/injector.h"
#include "nakamoto/attack.h"
#include "nakamoto/miner.h"
#include "nakamoto/pools.h"
#include "runtime/registry.h"
#include "support/rng.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

constexpr double kForkBlockInterval = 120.0;
constexpr std::size_t kForkMiners = 10;
/// Horizon in units of the block interval.
constexpr double kForkHorizonBlocks = 2000.0;

/// Fork/stale rate of an honest mining race at one mean one-way delay
/// (seconds).
runtime::MetricRecord run_fork_rate(double delay,
                                    const runtime::RunContext& ctx) {
  nakamoto::NakamotoOptions options;
  options.mean_block_interval = kForkBlockInterval;
  options.network.min_latency = delay / 2.0;
  options.network.mean_extra_latency = delay / 2.0;
  options.seed = ctx.seed;
  nakamoto::NakamotoSim sim(std::vector<double>(kForkMiners, 1.0), options);
  sim.run_for(kForkBlockInterval * kForkHorizonBlocks);
  const nakamoto::ChainStats stats = sim.stats();

  runtime::MetricRecord metrics;
  metrics.set("delay_over_interval", delay / kForkBlockInterval);
  metrics.set("blocks_mined", static_cast<double>(stats.total_blocks));
  metrics.set("stale_rate_pct", stats.stale_rate * 100.0);
  return metrics;
}

/// Double-spend success for attacker share q: Nakamoto closed form at
/// z ∈ {1, 2, 6}, Monte-Carlo at z = 6, and confirmations for <0.1% risk.
runtime::MetricRecord run_double_spend(double q, std::size_t trials,
                                       const runtime::RunContext& ctx) {
  support::Rng rng(ctx.seed);

  runtime::MetricRecord metrics;
  metrics.set("closed_z1", nakamoto::attack_success_closed_form(q, 1));
  metrics.set("closed_z2", nakamoto::attack_success_closed_form(q, 2));
  metrics.set("closed_z6", nakamoto::attack_success_closed_form(q, 6));
  metrics.set("monte_carlo_z6",
              nakamoto::attack_success_monte_carlo(q, 6, trials, rng));
  metrics.set("z_for_0.1pct_risk", static_cast<double>(
                                       nakamoto::confirmations_for_risk(
                                           q, 0.001)));
  return metrics;
}

/// Pool-software compromise: one component fault → aggregated hashrate →
/// double-spend success, over the Example-1 pool snapshot. `pool_case`
/// selects the software assignment: "best_case" gives every pool a unique
/// configuration (the paper's best case); "realistic" and "monoculture"
/// draw zipf-skewed assignments from the standard and the monoculture
/// catalog, derived from the run seed.
runtime::MetricRecord run_pool_compromise(const std::string& pool_case,
                                          const runtime::RunContext& ctx) {
  const config::ComponentCatalog catalog =
      pool_case == "monoculture" ? config::monoculture_catalog()
                                 : config::standard_catalog();
  const nakamoto::PoolSet pools =
      pool_case == "best_case"
          ? nakamoto::PoolSet::example1(catalog, true)
          : nakamoto::PoolSet::example1(catalog, false, ctx.seed);
  faults::FaultInjector injector(pools.as_population());
  const double q = injector.worst_case_components(1).compromised_fraction;

  runtime::MetricRecord metrics;
  metrics.set("worst_1fault_share", q);
  metrics.set("attack_z6", nakamoto::attack_success_closed_form(q, 6));
  metrics.set("attack_z24", nakamoto::attack_success_closed_form(q, 24));
  return metrics;
}

const runtime::ScenarioRegistration kForkRate{{
    .name = "fork_rate",
    .description = "honest mining race: fork/stale rate vs one-way "
                   "propagation delay",
    .grids = {runtime::ParamGrid{
        {"delay", {0.1, 1.0, 5.0, 15.0, 40.0}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const double delay = p.get_double("delay");
      return {"fork_rate/delay=" + support::Table::format_cell(delay) + "s",
              [delay](const runtime::RunContext& ctx) {
                return run_fork_rate(delay, ctx);
              }};
    },
}};

const runtime::ScenarioRegistration kDoubleSpend{{
    .name = "double_spend",
    .description = "double-spend race: Nakamoto closed form vs seeded "
                   "Monte-Carlo, per attacker share q",
    .grids = {runtime::ParamGrid{
        {"q", {0.05, 0.10, 0.20, 0.30, 0.40, 0.45}},
        {"trials", {40000}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const double q = p.get_double("q");
      const std::size_t trials = p.get_size("trials");
      return {"double_spend/q=" + support::Table::format_cell(q),
              [q, trials](const runtime::RunContext& ctx) {
                return run_double_spend(q, trials, ctx);
              }};
    },
}};

const runtime::ScenarioRegistration kPoolCompromise{{
    .name = "pool_compromise",
    .description = "§I pipeline: one component fault → aggregated pool "
                   "hashrate → double-spend success",
    .grids = {runtime::ParamGrid{
        {"case", {"best_case", "realistic", "monoculture"}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::string& c = p.get_string("case");
      if (c != "best_case" && c != "monoculture" && c != "realistic") {
        throw std::invalid_argument("unknown pool_compromise case '" + c +
                                    "'");
      }
      return {"pool_compromise/" + c,
              [c](const runtime::RunContext& ctx) {
                return run_pool_compromise(c, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
