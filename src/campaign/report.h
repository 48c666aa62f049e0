// The campaign reporter: outcome rates attributed to what was faulted.
//
// Consumes executed campaign cells as `runtime::TaskResult`s — either
// in-process or parsed back from worker JSONL shards — and aggregates the
// outcome classification three ways: by the *faulted component kind* (the
// per-component resilience view the paper's safety condition reasons
// about; carried in each cell's `component_kind` metric), by target
// family, and by fault kind (both parsed from the cell's axis-explicit
// instance name). The reporter sits strictly downstream of `--merge`, so
// it never touches the byte-identity contract of the shard pipeline.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/task.h"

namespace findep::campaign {

/// Aggregated outcomes of one group of cells (rates are means over the
/// group's per-seed records).
struct CampaignGroupStats {
  std::string key;
  std::size_t cells = 0;
  double detected_rate = 0.0;
  double recovered_rate = 0.0;
  double safety_violation_rate = 0.0;
  double liveness_stall_rate = 0.0;
  /// Mean recovery_time_s over recovered cells; -1 when none recovered.
  double mean_recovery_s = -1.0;
};

struct CampaignReport {
  std::size_t cells = 0;          ///< ok records aggregated
  std::size_t errored_cells = 0;  ///< records carrying an error (skipped)
  /// Groups in first-appearance order of the (deterministically ordered)
  /// input, so the rendering is stable across runs and shardings.
  std::vector<CampaignGroupStats> by_component_kind;
  std::vector<CampaignGroupStats> by_target;
  std::vector<CampaignGroupStats> by_fault;

  [[nodiscard]] std::string to_string() const;
};

/// Aggregates campaign TaskResults (non-campaign families are ignored).
[[nodiscard]] CampaignReport build_campaign_report(
    const std::vector<runtime::TaskResult>& results);

/// Reads result shards ("-" = stdin) through runtime::read_shards, the
/// reader behind `--merge`, then builds and prints the report. Unreadable
/// files or malformed lines go to `err` with exit code 2; returns 1 when
/// any record carried an error, else 0.
int report_main(const std::vector<std::string>& paths, std::ostream& out,
                std::ostream& err);

}  // namespace findep::campaign
