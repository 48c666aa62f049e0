// The campaign scenario family: one cell = one (target, fault, rate, n)
// grid point, run per seed like any other scenario.
//
// Registering campaign cells as a `runtime::ScenarioFamily` is the whole
// distribution story: every cell is a `runtime::TaskSpec`, so campaigns
// shard across workers through the existing `--emit-tasks` / `--worker` /
// `--merge` pipeline and merged output is byte-identical to an in-process
// run — nothing campaign-specific was added to the task layer.
//
// A cell derives three rng streams from its run seed (fleet draw, fault
// draw, per-message corruption draws), builds the target fleet, resolves
// the fault plan, runs a PBFT cluster under open-loop load with the fault
// scheduled at t = inject_at, and emits the outcome classification plus
// the fleet's diversity quantities so the reporter can attribute rates to
// the faulted component kind.
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/fault.h"
#include "campaign/outcome.h"
#include "campaign/target.h"
#include "config/catalog.h"
#include "diversity/analyzer.h"
#include "replication/cluster.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::campaign {
namespace {

struct Params {
  /// Target-family name (see campaign/target.h).
  std::string target = "diverse";
  /// Fault-kind name (see campaign/fault.h).
  std::string fault = "crash";
  /// Exploitability in (0, 1]: per-exposed-replica success probability
  /// (per-message flip probability for the corruption kind).
  double rate = 1.0;
  std::size_t n = 7;
  /// Open-loop load: one request every `period_s`, `requests` total.
  std::size_t requests = 21;
  double period_s = 0.5;
  double deadline = 45.0;
  /// Ordering protocol under fault (the optional `protocol` axis);
  /// when set, the label ends in " proto=<name>" (always last). Unset
  /// means a legacy grid without the axis: the cell runs PBFT and keeps
  /// its historical label.
  std::optional<replication::Protocol> protocol;
};

// Axis-explicit (the same "axis=value" form ParamSet::label() renders):
// the campaign reporter parses target/fault back out of instance names.
std::string grid_label(const Params& p) {
  std::string label = "target=" + p.target + " fault=" + p.fault +
                      " rate=" + runtime::ParamValue(p.rate).to_string() +
                      " n=" + std::to_string(p.n);
  if (p.protocol.has_value()) {
    label += std::string(" proto=") + replication::protocol_name(*p.protocol);
  }
  return label;
}

runtime::MetricRecord run_cell(const Params& params,
                               const runtime::RunContext& ctx) {
  // Three independent streams off the cell seed: the fleet draw, the
  // fault draw, and the per-message corruption draws. Forked so a target
  // family consuming a different amount of randomness cannot perturb the
  // fault plan of an otherwise-identical cell.
  support::Rng root(support::mix64(ctx.seed ^ 0xca3ba1610f5eed11ULL));
  support::Rng fleet_rng = root.fork(1);
  support::Rng fault_rng = root.fork(2);
  auto link_rng = std::make_shared<support::Rng>(root.fork(3));

  const std::vector<diversity::ReplicaRecord> fleet =
      build_target_fleet(params.target, params.n, fleet_rng);
  const config::ComponentCatalog catalog = config::standard_catalog();
  const FaultKind kind = parse_fault_kind(params.fault);
  const FaultPlan plan =
      plan_fault(kind, params.rate, fleet, catalog, fault_rng);
  const diversity::DiversityReport diversity =
      diversity::DiversityAnalyzer::analyze(fleet);

  replication::ClusterOptions options;
  options.seed = ctx.seed;
  // Fast-LAN profile (same as the BFT suites): the subject is the fault,
  // not overload, so the offered load must commit comfortably inside
  // request_timeout on the healthy path.
  options.network.min_latency = 0.005;
  options.network.mean_extra_latency = 0.01;
  // Small checkpoint distance so a healed outage spans several intervals
  // and state transfer (not just live traffic) does the catching up.
  options.replica.checkpoint_interval = 4;
  options.protocol = params.protocol.value_or(replication::Protocol::kPbft);
  replication::Cluster cluster(params.n, options,
                               planned_behaviors(plan, params.n));
  schedule_fault(plan, cluster, link_rng);

  for (std::size_t i = 0; i < params.requests; ++i) {
    cluster.simulator().schedule_at(
        static_cast<double>(i) * params.period_s,
        [&cluster] { (void)cluster.submit(); });
  }

  // Drive in slices until converged or out of time. Convergence is only
  // meaningful once the fault has settled (healed, or permanently
  // injected); the slice width quantizes times but keeps them
  // deterministic.
  constexpr double kSlice = 0.25;
  while (cluster.simulator().now() < params.deadline) {
    cluster.run_for(kSlice);
    if (cluster.simulator().now() > plan.settle_at() &&
        cluster.completed_requests() == params.requests &&
        unresolved_stragglers(cluster, plan) == 0) {
      break;
    }
    if (!cluster.simulator().has_pending()) break;
  }

  const Outcome outcome = classify_outcome(cluster, plan, params.requests);

  runtime::MetricRecord metrics;
  metrics.set("faults_injected", static_cast<double>(plan.victims.size()));
  metrics.set("exposed_fraction", plan.exposed_fraction);
  metrics.set("victim_fraction", plan.victim_fraction);
  metrics.set("component_kind", static_cast<double>(plan.component_kind));
  metrics.set("fleet_entropy_bits", diversity.entropy_bits);
  metrics.set("worst_component_share",
              diversity.worst_overall ? diversity.worst_overall->power_fraction
                                      : 0.0);
  metrics.set("fault_detected", outcome.detected ? 1.0 : 0.0);
  metrics.set("recovered", outcome.recovered ? 1.0 : 0.0);
  metrics.set("safety_violated", outcome.safety_violated ? 1.0 : 0.0);
  metrics.set("liveness_stalled", outcome.liveness_stalled ? 1.0 : 0.0);
  metrics.set("committed_requests", static_cast<double>(outcome.committed));
  metrics.set("recovery_time_s", outcome.recovery_time_s);
  metrics.set("max_view_changes",
              static_cast<double>(outcome.max_view_changes));
  metrics.set("corrupted_rejected",
              static_cast<double>(outcome.corrupted_rejected));
  metrics.set("state_transfers", static_cast<double>(outcome.state_transfers));
  return metrics;
}

/// The default campaign grid: every target × every fault × two rates.
runtime::ParamGrid default_grid() {
  runtime::ParamGrid grid;
  std::vector<runtime::ParamValue> targets;
  for (const TargetFamily& family : target_families()) {
    targets.emplace_back(family.name);
  }
  grid.add_axis("target", std::move(targets));
  std::vector<runtime::ParamValue> faults;
  for (const auto& [fault_name, fault_kind] : fault_kinds()) {
    faults.emplace_back(fault_name);
  }
  grid.add_axis("fault", std::move(faults));
  grid.add_axis("rate", {1.0, 0.5});
  grid.add_axis("n", {7});
  return grid;
}

const runtime::ScenarioRegistration kCampaign{{
    .name = "campaign",
    .description = "fault-injection campaign cells: target fleet × "
                   "component-correlated fault kind × exploitability rate, "
                   "classified as detected/recovered/safety/liveness",
    .grids =
        {
            default_grid(),
            // A compact HotStuff block over the same fault engine: the
            // faults live entirely in the network and behaviour layers,
            // so the campaign machinery is protocol-neutral — only the
            // detection evidence differs (pacemaker timeouts instead of
            // view changes).
            runtime::ParamGrid{{"target", {"uniform", "diverse"}},
                               {"fault",
                                {"crash", "partition", "corrupt", "censor"}},
                               {"rate", {1.0}},
                               {"n", {7}},
                               {"protocol", {"hotstuff"}}},
        },
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{
          .target = p.get_string("target"),
          .fault = p.get_string("fault"),
          .rate = p.get_double("rate"),
          .n = p.get_size("n"),
          .protocol = p.has("protocol")
                          ? std::optional(replication::parse_protocol(
                                p.get_string("protocol")))
                          : std::nullopt};
      FINDEP_REQUIRE(params.requests >= 1);
      FINDEP_REQUIRE(params.period_s > 0.0);
      FINDEP_REQUIRE(params.deadline > 0.0);
      // Fail here, not mid-sweep: an overridden axis value the cell
      // cannot run should abort before any cell runs, naming the value.
      if (params.n < 4) {
        throw std::invalid_argument("n must be at least 4 (got " +
                                    std::to_string(params.n) + ")");
      }
      if (!(params.rate > 0.0 && params.rate <= 1.0)) {
        throw std::invalid_argument(
            "rate " + runtime::ParamValue(params.rate).to_string() +
            " outside (0, 1]");
      }
      (void)parse_fault_kind(params.fault);
      (void)require_target_family(params.target);
      return {"campaign/" + grid_label(params),
              [params](const runtime::RunContext& ctx) {
                return run_cell(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::campaign
