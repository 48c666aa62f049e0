// Selfish-mining scenario (Eyal–Sirer baseline, §I "majority is not
// enough"): one attacker hashrate α per instance, simulated at the three
// canonical race-win fractions γ ∈ {0, 0.5, 1}. Replaces the Rng reuse
// across cells of the old bench driver — each seed gets independent
// substreams per γ.
#include <string>

#include "nakamoto/selfish.h"
#include "runtime/registry.h"
#include "support/rng.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

runtime::MetricRecord run_selfish_mining(double alpha, std::size_t rounds,
                                         const runtime::RunContext& ctx) {
  support::Rng rng(ctx.seed);
  // Independent substreams so the three γ simulations never share draws.
  support::Rng rng_g0 = rng.fork(0);
  support::Rng rng_g5 = rng.fork(1);
  support::Rng rng_g1 = rng.fork(2);
  const auto g0 =
      nakamoto::simulate_selfish_mining(alpha, 0.0, rounds, rng_g0);
  const auto g5 =
      nakamoto::simulate_selfish_mining(alpha, 0.5, rounds, rng_g5);
  const auto g1 =
      nakamoto::simulate_selfish_mining(alpha, 1.0, rounds, rng_g1);

  runtime::MetricRecord metrics;
  metrics.set("revenue_g0", g0.revenue_share());
  metrics.set("revenue_g05", g5.revenue_share());
  metrics.set("revenue_g1", g1.revenue_share());
  metrics.set("advantage_g05", g5.advantage());
  return metrics;
}

const runtime::ScenarioRegistration kSelfishMining{{
    .name = "selfish_mining",
    .description = "Eyal–Sirer selfish mining: relative revenue vs "
                   "hashrate α at γ ∈ {0, 0.5, 1}",
    .grids = {runtime::ParamGrid{
        {"alpha", {0.10, 0.20, 0.25, 0.30, 1.0 / 3.0, 0.40, 0.45}},
        {"rounds", {1'000'000}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const double alpha = p.get_double("alpha");
      const std::size_t rounds = p.get_size("rounds");
      return {"selfish_mining/alpha=" + support::Table::format_cell(alpha),
              [alpha, rounds](const runtime::RunContext& ctx) {
                return run_selfish_mining(alpha, rounds, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
