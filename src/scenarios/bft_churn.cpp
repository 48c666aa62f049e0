// The bft_churn family: long-horizon replica churn against the PBFT
// core's checkpoint-anchored state transfer.
//
// Each instance crashes (partitions away) a just-under-1/3 slice of the
// committee for an outage spanning multiple checkpoint intervals while
// client load keeps flowing, heals the partition, and measures how the
// laggards rejoin: recovery time, state-transfer traffic, and — the
// invariant the tentpole exists for — zero stranded replicas. The same
// instance with `state_transfer = 0` regression-pins the historical
// stranding, so the sweep proves the fix in both directions.
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "replication/cluster.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "support/assert.h"

namespace findep::scenarios {
namespace {

struct Params {
  std::size_t n = 4;
  /// Fraction of the committee crashed through the outage; the crashed
  /// count is floor(n * crash_fraction) (highest ids, so the view-0
  /// primary stays up and view changes measure churn, not leader loss).
  double crash_fraction = 0.3;
  /// Outage length in simulated seconds. With the default load and
  /// checkpoint interval this spans many checkpoint intervals.
  double outage_s = 6.0;
  std::size_t batch_size = 1;
  /// 0 disables state transfer (regression mode: laggards strand).
  bool state_transfer = true;
  /// Execute-to-checkpoint distance (small, so an outage covers many
  /// intervals cheaply).
  std::uint64_t checkpoint_interval = 4;
  /// Open-loop client arrival rate (requests/second), sustained from
  /// t = 0 until past the heal so laggards have live traffic and fresh
  /// checkpoints to catch up against.
  double offered_load = 12.0;
  /// Outage start / post-heal traffic tail (seconds).
  double outage_start = 1.0;
  double tail_s = 2.0;
  double deadline = 60.0;
  /// Ordering protocol (the optional `protocol` axis); when set, the
  /// label ends in " proto=<name>". Unset means a legacy grid without
  /// the axis: the cell runs PBFT and keeps its historical label.
  std::optional<replication::Protocol> protocol;
};

std::string grid_label(const Params& p) {
  std::string label = "n=" + std::to_string(p.n);
  label += " c=" + runtime::ParamValue(p.crash_fraction).to_string();
  label += " o=" + runtime::ParamValue(p.outage_s).to_string();
  label += " b=" + std::to_string(p.batch_size);
  if (!p.state_transfer) label += " nost";
  if (p.protocol.has_value()) {
    label += std::string(" proto=") + replication::protocol_name(*p.protocol);
  }
  return label;
}

runtime::MetricRecord run_bft_churn(const Params& params,
                                    const runtime::RunContext& ctx) {
  replication::ClusterOptions options;
  options.seed = ctx.seed;
  // Fast-LAN profile (the same one the BFT test suite uses): the subject
  // here is churn recovery, not overload — the sustained offered load
  // must commit comfortably inside request_timeout, or spurious view
  // changes (a known fragility under backlog) drown the signal.
  options.network.min_latency = 0.005;
  options.network.mean_extra_latency = 0.01;
  options.replica.batch_size = params.batch_size;
  options.replica.checkpoint_interval = params.checkpoint_interval;
  options.replica.enable_state_transfer = params.state_transfer;
  options.protocol = params.protocol.value_or(replication::Protocol::kPbft);
  replication::Cluster cluster(params.n, options);

  // Open-loop load sustained from t = 0 until tail_s past the heal, so
  // the live quorum advances checkpoints *during* the outage (that is
  // what strands the crashed slice) and keeps advancing them after it
  // (that is what lets the laggards detect and fetch the missing state).
  const double heal_at = params.outage_start + params.outage_s;
  const double submit_until = heal_at + params.tail_s;
  const auto requests = static_cast<std::size_t>(
      std::floor(submit_until * params.offered_load)) + 1;
  for (std::size_t i = 0; i < requests; ++i) {
    cluster.simulator().schedule_at(
        static_cast<double>(i) / params.offered_load,
        [&cluster] { (void)cluster.submit(); });
  }

  // The outage: the highest-id floor(n * crash_fraction) replicas drop
  // off the network entirely (each in its own partition group — a crash,
  // not a netsplit among survivors), then everyone heals at once.
  const auto crashed = static_cast<std::size_t>(
      static_cast<double>(params.n) * params.crash_fraction);
  cluster.simulator().schedule_at(params.outage_start, [&cluster, &params,
                                                        crashed] {
    for (std::size_t k = 0; k < crashed; ++k) {
      const auto node = static_cast<net::NodeId>(params.n - 1 - k);
      cluster.network().set_partition_group(node,
                                            static_cast<std::uint32_t>(1 + k));
    }
  });
  cluster.simulator().schedule_at(heal_at,
                                  [&cluster] { cluster.network().heal_partitions(); });

  // Drive in slices, watching for full convergence: every request
  // executed and every replica at the same execution horizon. The slice
  // width quantizes recovery_time_s but keeps it deterministic.
  constexpr double kSlice = 0.25;
  double recovered_at = -1.0;
  while (cluster.simulator().now() < params.deadline) {
    cluster.run_for(kSlice);
    if (cluster.simulator().now() > heal_at &&
        cluster.completed_requests() == requests &&
        cluster.stranded_replicas() == 0) {
      recovered_at = cluster.simulator().now();
      break;
    }
    if (!cluster.simulator().has_pending()) break;
  }

  using replication::Telemetry;
  runtime::MetricRecord metrics;
  metrics.set("committed_requests",
              static_cast<double>(cluster.completed_requests()));
  metrics.set("stranded_replicas",
              static_cast<double>(cluster.stranded_replicas()));
  metrics.set("recovery_time_s",
              recovered_at < 0.0 ? -1.0 : recovered_at - heal_at);
  metrics.set("state_transfers",
              static_cast<double>(cluster.total(&Telemetry::state_transfers)));
  metrics.set("state_transfer_bytes",
              static_cast<double>(
                  cluster.total(&Telemetry::state_transfer_bytes)));
  metrics.set("max_view_changes",
              static_cast<double>(cluster.most(&Telemetry::disruptions)));
  return metrics;
}

const runtime::ScenarioRegistration kBftChurn{{
    .name = "bft_churn",
    .description = "PBFT churn: crash just-under-1/3 through a multi-"
                   "checkpoint outage, heal, measure state-transfer "
                   "recovery (stranded_replicas must be 0)",
    .grids =
        {
            runtime::ParamGrid{{"n", {4, 10}},
                               {"crash", {0.3}},
                               {"outage", {6.0}},
                               {"batch_size", {1, 4}},
                               {"state_transfer", {1, 0}}},
            // The HotStuff lane reuses the shared durability layer
            // (CheckpointStore + StateFetchMachine), so the same outage
            // must recover with zero stranded replicas there too.
            runtime::ParamGrid{{"n", {4, 10}},
                               {"crash", {0.3}},
                               {"outage", {6.0}},
                               {"batch_size", {4}},
                               {"state_transfer", {1}},
                               {"protocol", {"hotstuff"}}},
        },
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{
          .n = p.get_size("n"),
          .crash_fraction = p.get_double("crash"),
          .outage_s = p.get_double("outage"),
          .batch_size = p.get_size("batch_size"),
          .state_transfer = p.get_int("state_transfer") != 0,
          .protocol = p.has("protocol")
                          ? std::optional(replication::parse_protocol(
                                p.get_string("protocol")))
                          : std::nullopt};
      FINDEP_REQUIRE(params.n >= 4);
      FINDEP_REQUIRE(params.crash_fraction >= 0.0 &&
                     params.crash_fraction < 1.0 / 3.0 + 1e-9);
      FINDEP_REQUIRE(params.outage_s > 0.0);
      FINDEP_REQUIRE(params.batch_size >= 1);
      FINDEP_REQUIRE(params.checkpoint_interval >= 1);
      FINDEP_REQUIRE(params.offered_load > 0.0);
      return {"bft_churn/" + grid_label(params),
              [params](const runtime::RunContext& ctx) {
                return run_bft_churn(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
