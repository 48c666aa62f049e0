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
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "replication/options.h"
#include "runtime/param.h"
#include "runtime/scenario.h"

namespace findep::campaign {

class CampaignCellScenario : public runtime::Scenario {
 public:
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
    std::string label;
  };

  [[nodiscard]] static std::string grid_label(const Params& p);

  explicit CampaignCellScenario(Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] runtime::MetricRecord run(
      const runtime::RunContext& ctx) const override;

  /// The default campaign grid (every target × every fault × two rates),
  /// the grid campaign spec files (`findep-bench --spec`) override.
  [[nodiscard]] static runtime::ParamGrid default_grid();

 private:
  Params params_;
};

}  // namespace findep::campaign
