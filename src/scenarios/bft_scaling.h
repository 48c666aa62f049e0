// The PBFT scaling run function (§IV-B overhead side of the (κ, ω)
// trade-off), shared by the bft_scaling and bft_batching families: one
// cluster size / behaviour mix per instance, swept across seeds by the
// runtime. Seeds come exclusively from the RunContext, so a whole sweep
// is reproducible from one --seed flag.
//
// The families' factories live in bft_scaling.cpp. This header exists for
// the tests that run a configuration no grid axis carries (a batch timer,
// say) through run_bft_scaling directly.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "crypto/cost.h"
#include "replication/options.h"
#include "runtime/scenario.h"

namespace findep::scenarios {

struct BftScalingParams {
  std::size_t n = 4;
  /// May be shorter than n; missing entries are honest.
  std::vector<replication::Behavior> behaviors;
  int requests = 5;
  /// Primary-side batching: requests agreed per consensus instance.
  std::size_t batch_size = 1;
  /// Seconds a partial batch may wait before the primary cuts it.
  double batch_timeout = 0.05;
  /// Client arrival rate in requests/second; 0 = all at t = 0.
  double offered_load = 0.0;
  double deadline = 240.0;
  /// Liveness timers, passed through to ReplicaOptions. The modeled
  /// lane parks them high: a single-core replica grinding through a
  /// large verify backlog is exactly what the worker sweep measures,
  /// and the historical 1s timeout (tuned for zero-cost crypto) would
  /// view-change it mid-measurement.
  double request_timeout = 1.0;
  double view_change_timeout = 1.5;
  /// Modeled crypto cost (the `crypto` axis). The default free model
  /// keeps the instance bit-identical to historical output; a non-free
  /// model charges sign/verify time and emits extra metrics
  /// (committed_requests, verify_tasks, verify_dropped_stale).
  crypto::CostModel cost_model{};
  /// Modeled verification cores per replica (the `workers` axis; only
  /// meaningful with a non-free cost model).
  std::size_t workers = 1;
  /// Ordering protocol every replica runs (the optional `protocol`
  /// axis). Unset means a legacy grid without the axis: the cell runs
  /// PBFT and emits no commit-latency percentiles, so every legacy
  /// record stays byte-identical to historical output.
  std::optional<replication::Protocol> protocol;
};

/// Runs one seed of `params`: a cluster of n replicas commits `requests`
/// client requests, and the record carries latency, traffic per request
/// and view changes.
[[nodiscard]] runtime::MetricRecord run_bft_scaling(
    const BftScalingParams& params, const runtime::RunContext& ctx);

}  // namespace findep::scenarios
