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
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "replication/options.h"
#include "runtime/param.h"
#include "runtime/scenario.h"

namespace findep::scenarios {

class BftChurnScenario : public runtime::Scenario {
 public:
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
    std::string label;
  };

  [[nodiscard]] static std::string grid_label(const Params& p);

  explicit BftChurnScenario(Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] runtime::MetricRecord run(
      const runtime::RunContext& ctx) const override;

 private:
  Params params_;
};

}  // namespace findep::scenarios
