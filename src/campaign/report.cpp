#include "campaign/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "config/component.h"

namespace findep::campaign {

namespace {

/// Extracts one "axis=value" from a cell instance name
/// ("campaign/target=uniform fault=crash rate=1 n=7").
std::string axis_of(const std::string& scenario, const std::string& axis) {
  const std::string needle = axis + "=";
  std::size_t pos = scenario.find(needle);
  while (pos != std::string::npos &&
         !(pos == 0 || scenario[pos - 1] == ' ' || scenario[pos - 1] == '/')) {
    pos = scenario.find(needle, pos + 1);
  }
  if (pos == std::string::npos) return "?";
  const std::size_t begin = pos + needle.size();
  const std::size_t end = scenario.find(' ', begin);
  return scenario.substr(begin, end == std::string::npos ? std::string::npos
                                                         : end - begin);
}

std::string component_kind_name(double value) {
  const auto raw = static_cast<long long>(value);
  if (raw < 0 || raw >= static_cast<long long>(config::kComponentKindCount)) {
    return "?";
  }
  return std::string(
      config::to_string(static_cast<config::ComponentKind>(raw)));
}

struct Accum {
  std::string key;
  std::size_t cells = 0;
  double detected = 0.0;
  double recovered = 0.0;
  double safety = 0.0;
  double stalled = 0.0;
  double recovery_sum = 0.0;
  std::size_t recovered_count = 0;
};

void accumulate(std::vector<Accum>& groups, const std::string& key,
                const runtime::MetricRecord& metrics) {
  Accum* group = nullptr;
  for (Accum& g : groups) {
    if (g.key == key) {
      group = &g;
      break;
    }
  }
  if (group == nullptr) {
    groups.push_back(Accum{.key = key});
    group = &groups.back();
  }
  ++group->cells;
  group->detected += metrics.get("fault_detected");
  group->recovered += metrics.get("recovered");
  group->safety += metrics.get("safety_violated");
  group->stalled += metrics.get("liveness_stalled");
  if (metrics.get("recovered") > 0.0) {
    group->recovery_sum += metrics.get("recovery_time_s");
    ++group->recovered_count;
  }
}

std::vector<CampaignGroupStats> finalize(const std::vector<Accum>& groups) {
  std::vector<CampaignGroupStats> stats;
  stats.reserve(groups.size());
  for (const Accum& g : groups) {
    const auto cells = static_cast<double>(g.cells);
    stats.push_back(CampaignGroupStats{
        .key = g.key,
        .cells = g.cells,
        .detected_rate = g.detected / cells,
        .recovered_rate = g.recovered / cells,
        .safety_violation_rate = g.safety / cells,
        .liveness_stall_rate = g.stalled / cells,
        .mean_recovery_s =
            g.recovered_count == 0
                ? -1.0
                : g.recovery_sum / static_cast<double>(g.recovered_count)});
  }
  return stats;
}

void render_groups(std::string& out, const std::string& title,
                   const std::vector<CampaignGroupStats>& groups) {
  out += "  by " + title + ":\n";
  std::size_t width = 0;
  for (const CampaignGroupStats& g : groups) {
    width = std::max(width, g.key.size());
  }
  for (const CampaignGroupStats& g : groups) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "    %-*s cells=%-3zu detected=%.3f recovered=%.3f "
                  "safety_violated=%.3f liveness_stalled=%.3f",
                  static_cast<int>(width), g.key.c_str(), g.cells,
                  g.detected_rate, g.recovered_rate, g.safety_violation_rate,
                  g.liveness_stall_rate);
    out += buffer;
    if (g.mean_recovery_s >= 0.0) {
      std::snprintf(buffer, sizeof(buffer), " recovery=%.2fs",
                    g.mean_recovery_s);
      out += buffer;
    }
    out += "\n";
  }
}

}  // namespace

std::string CampaignReport::to_string() const {
  std::string out = "fault campaign: " + std::to_string(cells) + " cells";
  if (errored_cells > 0) {
    out += " (" + std::to_string(errored_cells) + " errored, skipped)";
  }
  out += "\n";
  render_groups(out, "faulted component kind", by_component_kind);
  render_groups(out, "target", by_target);
  render_groups(out, "fault", by_fault);
  return out;
}

CampaignReport build_campaign_report(
    const std::vector<runtime::TaskResult>& results) {
  CampaignReport report;
  std::vector<Accum> by_kind;
  std::vector<Accum> by_target;
  std::vector<Accum> by_fault;
  for (const runtime::TaskResult& result : results) {
    if (result.family != "campaign") continue;
    if (!result.record.ok()) {
      ++report.errored_cells;
      continue;
    }
    ++report.cells;
    const runtime::MetricRecord& metrics = result.record.metrics;
    accumulate(by_kind, component_kind_name(metrics.get("component_kind")),
               metrics);
    accumulate(by_target, axis_of(result.scenario, "target"), metrics);
    accumulate(by_fault, axis_of(result.scenario, "fault"), metrics);
  }
  report.by_component_kind = finalize(by_kind);
  report.by_target = finalize(by_target);
  report.by_fault = finalize(by_fault);
  return report;
}

int report_main(const std::vector<std::string>& paths, std::ostream& out,
                std::ostream& err) {
  std::vector<runtime::TaskResult> results;
  if (!runtime::read_shards(paths, results, err)) return 2;
  const CampaignReport report = build_campaign_report(results);
  out << report.to_string();
  return report.errored_cells > 0 ? 1 : 0;
}

}  // namespace findep::campaign
