// The 10k-node gossip sweep: Nakamoto block propagation at full network
// scale. This is the event-engine's stress shape — thousands of
// far-future mining timers parked beyond the calendar window while dense
// near-term delivery bursts churn through it — promoted to a first-class
// scenario family so CI exercises the engine at the scale the sweeps
// actually run.
#include <string>
#include <vector>

#include "nakamoto/miner.h"
#include "runtime/registry.h"

namespace findep::scenarios {
namespace {

constexpr double kMeanBlockInterval = 600.0;
/// Horizon in units of the block interval.
constexpr double kHorizonBlocks = 12.0;

/// One honest mining race at `nodes` miners over a degree-`degree`
/// gossip overlay, run for kHorizonBlocks expected block intervals.
/// Every metric is seed-derived (block and message counts), never
/// wall-clock, so the family is deterministic and CI-comparable.
runtime::MetricRecord run_gossip_scale(std::size_t nodes, std::size_t degree,
                                       const runtime::RunContext& ctx) {
  nakamoto::NakamotoOptions options;
  options.mean_block_interval = kMeanBlockInterval;
  options.gossip_degree = degree;
  // Wide-area latencies: blocks take a few gossip hops to cover the
  // overlay, so propagation is a real burst of work, not a single tick.
  options.network.min_latency = 0.05;
  options.network.mean_extra_latency = 0.1;
  options.seed = ctx.seed;
  nakamoto::NakamotoSim sim(std::vector<double>(nodes, 1.0), options);
  sim.run_for(kMeanBlockInterval * kHorizonBlocks);

  const nakamoto::ChainStats stats = sim.stats();
  runtime::MetricRecord metrics;
  metrics.set("blocks_mined", static_cast<double>(stats.total_blocks));
  metrics.set("stale_rate_pct", stats.stale_rate * 100.0);
  metrics.set("messages_delivered",
              static_cast<double>(sim.network().stats().messages_delivered));
  metrics.set("events_executed",
              static_cast<double>(sim.simulator().executed_count()));
  return metrics;
}

const runtime::ScenarioRegistration kGossipScale{{
    .name = "gossip_scale",
    .description = "10k-node Nakamoto gossip sweep: block propagation at "
                   "full network scale (event-engine stress shape)",
    .grids = {runtime::ParamGrid{
        {"n", {10000}},
        {"degree", {4}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const std::size_t nodes = p.get_size("n");
      const std::size_t degree = p.get_size("degree");
      return {"gossip_scale/n=" + std::to_string(nodes) +
                  " deg=" + std::to_string(degree),
              [nodes, degree](const runtime::RunContext& ctx) {
                return run_gossip_scale(nodes, degree, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
