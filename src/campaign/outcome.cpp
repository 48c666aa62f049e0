#include "campaign/outcome.h"

#include <algorithm>

namespace findep::campaign {

std::size_t unresolved_stragglers(const replication::Cluster& cluster,
                                  const FaultPlan& plan) {
  if (plan.kind != FaultKind::kCrash) return cluster.stranded_replicas();
  std::vector<bool> is_victim(cluster.size(), false);
  for (const std::size_t r : plan.victims) is_victim[r] = true;
  bft::SeqNum horizon = 0;
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    if (is_victim[r]) continue;
    horizon = std::max(horizon, cluster.node(r).last_executed());
  }
  std::size_t stragglers = 0;
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    if (is_victim[r]) continue;
    if (cluster.node(r).last_executed() < horizon) ++stragglers;
  }
  return stragglers;
}

Outcome classify_outcome(const replication::Cluster& cluster,
                         const FaultPlan& plan, std::size_t submitted) {
  using replication::Telemetry;
  Outcome out;
  out.submitted = submitted;
  out.committed = cluster.completed_requests();
  out.safety_violated = !cluster.logs_consistent();
  out.liveness_stalled = out.committed < out.submitted;
  out.state_transfers = cluster.total(&Telemetry::state_transfers);

  std::vector<bool> is_victim(cluster.size(), false);
  for (const std::size_t r : plan.victims) is_victim[r] = true;

  out.max_view_changes = cluster.most(&Telemetry::disruptions);
  out.corrupted_rejected = cluster.total(&Telemetry::corrupted_rejected);
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    // Protocol-neutral detection evidence: PBFT marks a view change
    // started or a new view installed, HotStuff a round expiry, a
    // received timeout or a proposal past a round gap.
    if (!is_victim[r] && cluster.node(r).telemetry().observed_disruption) {
      out.detected = true;
    }
  }
  if (out.corrupted_rejected > 0 || out.state_transfers > 0) {
    out.detected = true;
  }

  out.recovered = !out.safety_violated && !out.liveness_stalled &&
                  unresolved_stragglers(cluster, plan) == 0;
  if (out.recovered) {
    out.recovery_time_s =
        std::max(0.0, cluster.last_completion_time() - plan.inject_at);
  }
  return out;
}

}  // namespace findep::campaign
