// The PBFT scaling scenario (§IV-B overhead side of the (κ, ω)
// trade-off): one cluster size / behaviour mix per instance, swept across
// seeds by the runtime. Replaces the hand-rolled run_cluster() loop of
// the old bench driver — seeds now come exclusively from the RunContext,
// so a whole sweep is reproducible from one --seed flag.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cost.h"
#include "replication/options.h"
#include "runtime/param.h"
#include "runtime/scenario.h"

namespace findep::scenarios {

class BftScalingScenario : public runtime::Scenario {
 public:
  struct Params {
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
    /// Optional display label ("silent primary"); default "n=<n>".
    std::string label;
  };

  /// The shared label convention for grid-built instances: "n=<n>"
  /// plus " <mix>" / " b=<batch>" / " r=<requests>" / " load=<rate>" /
  /// " modeled w=<workers>" suffixes only for non-default values — so a
  /// bft_batching instance dialed back to the defaults renders
  /// *byte-identically* to the equivalent bft_scaling instance (the CI
  /// no-batching invariant). `protocol` is unset for legacy grids; when a
  /// grid carries the protocol axis the label ends in " proto=<name>"
  /// (always last, so CI end-of-line anchors on legacy labels never match
  /// a protocol cell).
  [[nodiscard]] static std::string grid_label(
      std::size_t n, const std::string& mix, std::size_t batch_size,
      int requests, double offered_load, const std::string& crypto,
      std::size_t workers, std::optional<replication::Protocol> protocol);

  /// Shared factory for the bft_scaling / bft_batching registrations.
  [[nodiscard]] static std::unique_ptr<runtime::Scenario> from_params(
      const runtime::ParamSet& p, const std::string& mix);

  explicit BftScalingScenario(Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] runtime::MetricRecord run(
      const runtime::RunContext& ctx) const override;

 private:
  Params params_;
};

}  // namespace findep::scenarios
