#include "faults/windows.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>

#include "diversity/resilience.h"
#include "support/assert.h"

namespace findep::faults {

namespace {

/// First recovery boundary of a replica at or after time t.
double next_recovery(double t, double offset, double period) {
  if (t <= offset) return offset;
  const double k = std::ceil((t - offset) / period);
  return offset + k * period;
}

}  // namespace

ExposureTimeline compute_exposure(
    const std::vector<diversity::ReplicaRecord>& population,
    const VulnerabilityCatalog& catalog, double horizon_days,
    std::size_t samples, const PatchLagModel& patching,
    const std::optional<RecoverySchedule>& recovery) {
  FINDEP_REQUIRE(!population.empty());
  FINDEP_REQUIRE(horizon_days > 0.0);
  FINDEP_REQUIRE(samples >= 2);
  FINDEP_REQUIRE(!recovery || recovery->period_days > 0.0);

  double total_power = 0.0;
  for (const auto& rec : population) total_power += rec.power;
  FINDEP_REQUIRE(total_power > 0.0);

  // The replicas running each component, in ascending order.
  std::unordered_map<config::ComponentId, std::vector<std::size_t>> runs;
  for (std::size_t r = 0; r < population.size(); ++r) {
    for (const config::ComponentId comp :
         population[r].configuration.components()) {
      std::vector<std::size_t>& replicas = runs[comp];
      if (replicas.empty() || replicas.back() != r) replicas.push_back(r);
    }
  }

  // Every window as the two boundaries of a [from, until) interval of one
  // (vulnerability, replica) pair: open from discovery until the patch
  // release plus the replica's deploy lag, cut at the first recovery
  // boundary after the release. A vulnerability no replica runs gets one
  // interval without a replica, open until the release, so that k_t counts
  // it. An empty interval is never open and gets no boundaries.
  constexpr std::size_t kNoReplica = static_cast<std::size_t>(-1);
  struct Boundary {
    double at = 0.0;
    std::size_t vuln = 0;
    std::size_t replica = kNoReplica;
    bool opens = false;
  };
  std::vector<Boundary> boundaries;
  const auto add_window = [&boundaries](double from, double until,
                                        std::size_t vuln,
                                        std::size_t replica) {
    if (!(from < until)) return;
    boundaries.push_back(Boundary{from, vuln, replica, true});
    boundaries.push_back(Boundary{until, vuln, replica, false});
  };
  // Deploy lags are drawn per (vulnerability, replica), in catalog order
  // and then replica order.
  support::Rng rng(patching.seed);
  const std::vector<std::size_t> no_replicas;
  const std::span<const Vulnerability> vulns = catalog.all();
  for (std::size_t v = 0; v < vulns.size(); ++v) {
    const Vulnerability& vuln = vulns[v];
    const auto it = runs.find(vuln.component);
    const std::vector<std::size_t>& replicas =
        it == runs.end() ? no_replicas : it->second;
    if (replicas.empty()) {
      add_window(vuln.discovered_at, vuln.patched_at, v, kNoReplica);
    }
    for (const std::size_t r : replicas) {
      double until = vuln.patched_at +
                     rng.exponential(1.0 / patching.mean_deploy_lag_days);
      if (recovery) {
        const double offset =
            recovery->staggered
                ? recovery->period_days * static_cast<double>(r) /
                      static_cast<double>(population.size())
                : 0.0;
        until = std::min(until, next_recovery(vuln.patched_at, offset,
                                              recovery->period_days));
      }
      add_window(vuln.discovered_at, until, v, r);
    }
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.at < b.at; });

  // Sweep the samples in time order. Before reading sample t, every
  // boundary at or before t has been applied, so an interval counts as
  // open exactly when from <= t < until: the test a rescan of every window
  // at t makes. Ties need no order, as only the counts after all of them
  // are read, and an interval's close sorts strictly after its open.
  std::vector<std::size_t> open_per_replica(population.size(), 0);
  std::vector<std::size_t> open_per_vuln(vulns.size(), 0);
  std::size_t open_vulns = 0;
  std::size_t next = 0;

  ExposureTimeline timeline;
  timeline.points.reserve(samples);
  std::size_t above_bft = 0;
  std::size_t above_majority = 0;

  for (std::size_t s = 0; s < samples; ++s) {
    const double t = horizon_days * static_cast<double>(s) /
                     static_cast<double>(samples - 1);
    for (; next < boundaries.size() && boundaries[next].at <= t; ++next) {
      const Boundary& b = boundaries[next];
      if (b.opens) {
        if (open_per_vuln[b.vuln]++ == 0) ++open_vulns;
        if (b.replica != kNoReplica) ++open_per_replica[b.replica];
      } else {
        if (--open_per_vuln[b.vuln] == 0) --open_vulns;
        if (b.replica != kNoReplica) --open_per_replica[b.replica];
      }
    }
    ExposurePoint point;
    point.t = t;
    point.open_vulnerabilities = open_vulns;
    // Summed in replica order, as a rescan adds.
    double exposed = 0.0;
    for (std::size_t r = 0; r < population.size(); ++r) {
      if (open_per_replica[r] > 0) exposed += population[r].power;
    }
    point.exposed_fraction = exposed / total_power;
    if (point.exposed_fraction > timeline.peak_exposed_fraction) {
      timeline.peak_exposed_fraction = point.exposed_fraction;
      timeline.peak_time = t;
    }
    timeline.peak_open_vulnerabilities = std::max(
        timeline.peak_open_vulnerabilities, point.open_vulnerabilities);
    if (point.exposed_fraction > diversity::kBftThreshold) ++above_bft;
    if (point.exposed_fraction > diversity::kNakamotoThreshold) {
      ++above_majority;
    }
    timeline.points.push_back(point);
  }
  timeline.time_above_bft_threshold =
      static_cast<double>(above_bft) / static_cast<double>(samples);
  timeline.time_above_majority_threshold =
      static_cast<double>(above_majority) / static_cast<double>(samples);
  return timeline;
}

}  // namespace findep::faults
