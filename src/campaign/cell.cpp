#include "campaign/cell.h"

#include <memory>
#include <utility>

#include "campaign/fault.h"
#include "campaign/outcome.h"
#include "campaign/target.h"
#include "config/catalog.h"
#include "diversity/analyzer.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::campaign {

CampaignCellScenario::CampaignCellScenario(Params params)
    : params_(std::move(params)) {
  FINDEP_REQUIRE(params_.n >= 4);
  FINDEP_REQUIRE(params_.rate > 0.0 && params_.rate <= 1.0);
  FINDEP_REQUIRE(params_.requests >= 1);
  FINDEP_REQUIRE(params_.period_s > 0.0);
  FINDEP_REQUIRE(params_.deadline > 0.0);
  // Fail at construction, not mid-sweep: an unknown name in an overridden
  // axis should abort before any cell runs.
  (void)parse_fault_kind(params_.fault);
  (void)require_target_family(params_.target);
  if (params_.label.empty()) params_.label = grid_label(params_);
}

// Axis-explicit (the same "axis=value" form ParamSet::label() renders):
// the campaign reporter parses target/fault back out of instance names.
std::string CampaignCellScenario::grid_label(const Params& p) {
  std::string label = "target=" + p.target + " fault=" + p.fault +
                      " rate=" + runtime::ParamValue(p.rate).to_string() +
                      " n=" + std::to_string(p.n);
  if (p.protocol.has_value()) {
    label += std::string(" proto=") + replication::protocol_name(*p.protocol);
  }
  return label;
}

std::string CampaignCellScenario::name() const {
  return "campaign/" + params_.label;
}

runtime::MetricRecord CampaignCellScenario::run(
    const runtime::RunContext& ctx) const {
  // Three independent streams off the cell seed: the fleet draw, the
  // fault draw, and the per-message corruption draws. Forked so a target
  // family consuming a different amount of randomness cannot perturb the
  // fault plan of an otherwise-identical cell.
  support::Rng root(support::mix64(ctx.seed ^ 0xca3ba1610f5eed11ULL));
  support::Rng fleet_rng = root.fork(1);
  support::Rng fault_rng = root.fork(2);
  auto link_rng = std::make_shared<support::Rng>(root.fork(3));

  const std::vector<diversity::ReplicaRecord> fleet =
      build_target_fleet(params_.target, params_.n, fleet_rng);
  const config::ComponentCatalog catalog = config::standard_catalog();
  const FaultKind kind = parse_fault_kind(params_.fault);
  const FaultPlan plan =
      plan_fault(kind, params_.rate, fleet, catalog, fault_rng);
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
  options.protocol = params_.protocol.value_or(replication::Protocol::kPbft);
  replication::Cluster cluster(params_.n, options,
                               planned_behaviors(plan, params_.n));
  schedule_fault(plan, cluster, link_rng);

  for (std::size_t i = 0; i < params_.requests; ++i) {
    cluster.simulator().schedule_at(
        static_cast<double>(i) * params_.period_s,
        [&cluster] { (void)cluster.submit(); });
  }

  // Drive in slices until converged or out of time. Convergence is only
  // meaningful once the fault has settled (healed, or permanently
  // injected); the slice width quantizes times but keeps them
  // deterministic.
  constexpr double kSlice = 0.25;
  while (cluster.simulator().now() < params_.deadline) {
    cluster.run_for(kSlice);
    if (cluster.simulator().now() > plan.settle_at() &&
        cluster.completed_requests() == params_.requests &&
        unresolved_stragglers(cluster, plan) == 0) {
      break;
    }
    if (!cluster.simulator().has_pending()) break;
  }

  const Outcome outcome = classify_outcome(cluster, plan, params_.requests);

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

runtime::ParamGrid CampaignCellScenario::default_grid() {
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

namespace {

const runtime::ScenarioRegistration kCampaign{{
    .name = "campaign",
    .description = "fault-injection campaign cells: target fleet × "
                   "component-correlated fault kind × exploitability rate, "
                   "classified as detected/recovered/safety/liveness",
    .grids =
        {
            CampaignCellScenario::default_grid(),
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
        [](const runtime::ParamSet& p) -> std::unique_ptr<runtime::Scenario> {
      return std::make_unique<CampaignCellScenario>(CampaignCellScenario::Params{
          .target = p.get_string("target"),
          .fault = p.get_string("fault"),
          .rate = p.get_double("rate"),
          .n = p.get_size("n"),
          .protocol = p.has("protocol")
                          ? std::optional(replication::parse_protocol(
                                p.get_string("protocol")))
                          : std::nullopt});
    },
}};

}  // namespace

}  // namespace findep::campaign
