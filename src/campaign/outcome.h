// Campaign outcome taxonomy: what happened to a cell's cluster.
//
// Four orthogonal verdicts, each measurable from existing cluster
// counters — no protocol instrumentation was added for classification:
//
//   detected   — some *non-victim* replica reacted to the fault (started
//                a view change or moved past view 0), a corrupted message
//                was rejected, or a state transfer completed. Victims'
//                own timers do not count: a crashed replica firing its
//                local timeout is not the cluster noticing the crash.
//   recovered  — every submitted request eventually committed, no honest
//                replica is stranded behind the honest execution horizon
//                once the fault settled, and safety held.
//   safety_violated  — honest executed logs diverged (two conflicting
//                commits); only coalitions above the 1/3 power threshold
//                can cause this, which is the paper's safety condition.
//   liveness_stalled — at least one submitted request never committed
//                within the cell horizon.
#pragma once

#include <cstddef>
#include <cstdint>

#include "campaign/fault.h"
#include "replication/cluster.h"

namespace findep::campaign {

struct Outcome {
  bool detected = false;
  bool recovered = false;
  bool safety_violated = false;
  bool liveness_stalled = false;
  /// Requests committed (executed at some honest replica) / submitted.
  std::size_t committed = 0;
  std::size_t submitted = 0;
  /// Seconds from fault injection to the last request commit when the
  /// cell recovered; -1 otherwise.
  double recovery_time_s = -1.0;
  /// Cluster::most(&Telemetry::disruptions) (victims included — this is
  /// a cost metric, not a detection verdict).
  std::uint64_t max_view_changes = 0;
  std::uint64_t corrupted_rejected = 0;
  std::uint64_t state_transfers = 0;
};

/// Replicas that should have converged but trail the execution horizon.
/// For healing and byzantine kinds this is the cluster's own
/// stranded_replicas() (byzantine victims are already skipped there);
/// for a permanent crash the victims are dead, not unrecovered, so both
/// the horizon and the stragglers are computed over survivors only.
[[nodiscard]] std::size_t unresolved_stragglers(
    const replication::Cluster& cluster, const FaultPlan& plan);

/// Classifies a finished cell run. Deterministic: reads only cluster
/// counters, in replica-index order.
[[nodiscard]] Outcome classify_outcome(const replication::Cluster& cluster,
                                       const FaultPlan& plan,
                                       std::size_t submitted);

}  // namespace findep::campaign
