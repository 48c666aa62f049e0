#include "workloads.h"

#include <set>
#include <utility>

namespace findep::perf {

namespace {

/// Family -> workload. bft_scaling is the one family split between two
/// workloads: its modeled-crypto lane (crypto=modeled) goes to multicore.
constexpr std::pair<const char*, const char*> kOwners[] = {
    {"bft_scaling", "ordering"},
    {"bft_batching", "ordering"},
    {"prop3_cost", "ordering"},
    {"committee_pipeline", "ordering"},
    {"campaign", "faults"},
    {"bft_churn", "faults"},
    {"gossip_scale", "propagation"},
    {"fork_rate", "propagation"},
    {"attestation_churn", "propagation"},
    {"double_spend", "montecarlo"},
    {"selfish_mining", "montecarlo"},
    {"safety_condition", "montecarlo"},
    {"prop1_entropy", "montecarlo"},
    {"prop2_unique", "montecarlo"},
    {"prop3_abundance", "montecarlo"},
    {"fig1_entropy", "montecarlo"},
    {"example1_entropy", "montecarlo"},
    {"two_tier", "montecarlo"},
    {"component_cap", "montecarlo"},
    {"diversity_audit", "montecarlo"},
    {"bitcoin_audit", "montecarlo"},
    {"pool_compromise", "montecarlo"},
    {"proactive_recovery", "montecarlo"},
    {"vulnerability_window", "montecarlo"},
};

bool param_is(const runtime::ParamSet& point, const char* axis,
              const char* value) {
  return point.has(axis) && point.get(axis).to_string() == value;
}

/// Every grid point of `family`, in instantiate_family() order.
std::vector<runtime::ParamSet> points_of(
    const runtime::ScenarioFamily& family) {
  if (family.grids.empty()) return {runtime::ParamSet{}};
  std::vector<runtime::ParamSet> points;
  for (const runtime::ParamGrid& grid : family.grids) {
    for (runtime::ParamSet& point : grid.expand()) {
      points.push_back(std::move(point));
    }
  }
  return points;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

const Workload* owner_of(const std::string& family,
                         const runtime::ParamSet& point) {
  if (family == "bft_scaling" && param_is(point, "crypto", "modeled")) {
    return find_workload("multicore");
  }
  for (const auto& [name, workload] : kOwners) {
    if (family == name) return find_workload(workload);
  }
  return nullptr;
}

std::vector<Cell> instantiate_workload(const Workload& workload) {
  std::vector<Cell> cells;
  for (const runtime::ScenarioFamily* family :
       runtime::ScenarioRegistry::global().families()) {
    if (!family->deterministic) continue;
    const std::vector<runtime::ParamSet> points = points_of(*family);
    bool owned = false;
    for (const runtime::ParamSet& point : points) {
      owned = owned || owner_of(family->name, point) == &workload;
    }
    if (!owned) continue;
    std::vector<std::unique_ptr<runtime::Scenario>> scenarios =
        runtime::instantiate_family(*family, family->grids);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (owner_of(family->name, points[i]) != &workload) continue;
      Cell cell;
      cell.family = family->name;
      cell.point = points[i];
      cell.scenario = std::move(scenarios[i]);
      cell.name = cell.scenario->name();
      cell.group = family->name;
      if (family->name == "campaign") {
        cell.group.append(".").append(points[i].get("fault").to_string());
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::vector<std::string> unassigned_families() {
  std::vector<std::string> out;
  for (const runtime::ScenarioFamily* family :
       runtime::ScenarioRegistry::global().families()) {
    if (!family->deterministic) continue;
    for (const runtime::ParamSet& point : points_of(*family)) {
      if (owner_of(family->name, point) == nullptr) {
        out.push_back(family->name);
        break;
      }
    }
  }
  return out;
}

std::string check_invariants(const Cell& cell,
                             const runtime::MetricRecord& m) {
  const auto require = [&](const char* metric,
                           double expected) -> std::string {
    if (!m.has(metric)) return std::string("missing ") + metric;
    if (m.get(metric) != expected) {
      return std::string(metric) + " = " +
             runtime::format_exact(m.get(metric)) + ", expected " +
             runtime::format_exact(expected);
    }
    return {};
  };
  if (cell.family == "bft_scaling" || cell.family == "bft_batching") {
    return require("completed", 1.0);
  }
  if (cell.family == "bft_churn" &&
      param_is(cell.point, "state_transfer", "1")) {
    return require("stranded_replicas", 0.0);
  }
  // Lazarus puts 2 of 7 replicas on one component: under 1/3, so no
  // fault kind may break safety.
  if (cell.family == "campaign" && param_is(cell.point, "target", "lazarus")) {
    return require("safety_violated", 0.0);
  }
  // Every honest joiner is admitted by the challenge-quote-admit protocol.
  if (cell.family == "attestation_churn") {
    std::string problem = require("rejected", 0.0);
    return problem.empty() ? require("undecided", 0.0) : problem;
  }
  return {};
}

bool seed_free(const Cell& cell) {
  static const std::set<std::string> kFamilies = {
      "example1_entropy", "fig1_entropy", "prop1_entropy", "prop2_unique",
      "prop3_abundance"};
  return kFamilies.count(cell.family) != 0;
}

}  // namespace findep::perf
