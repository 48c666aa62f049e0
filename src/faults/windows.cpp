#include "faults/windows.h"

#include <algorithm>
#include <cmath>

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

  // Pre-compute, per vulnerability, which replicas are exposed and until
  // when (patch release + per-replica deploy lag, cut at the first
  // recovery boundary after the release).
  support::Rng rng(patching.seed);
  struct PerVuln {
    double open_from = 0.0;
    double open_until_global = 0.0;  // patch release
    std::vector<std::size_t> replicas;
    std::vector<double> replica_until;
  };
  std::vector<PerVuln> windows;
  windows.reserve(catalog.size());
  for (const Vulnerability& v : catalog.all()) {
    PerVuln w;
    w.open_from = v.discovered_at;
    w.open_until_global = v.patched_at;
    for (std::size_t r = 0; r < population.size(); ++r) {
      const auto comp =
          population[r].configuration.components();
      if (std::find(comp.begin(), comp.end(), v.component) == comp.end()) {
        continue;
      }
      w.replicas.push_back(r);
      const double lag_end =
          v.patched_at +
          rng.exponential(1.0 / patching.mean_deploy_lag_days);
      if (!recovery) {
        w.replica_until.push_back(lag_end);
        continue;
      }
      const double offset =
          recovery->staggered
              ? recovery->period_days * static_cast<double>(r) /
                    static_cast<double>(population.size())
              : 0.0;
      w.replica_until.push_back(std::min(
          lag_end,
          next_recovery(v.patched_at, offset, recovery->period_days)));
    }
    windows.push_back(std::move(w));
  }

  ExposureTimeline timeline;
  timeline.points.reserve(samples);
  std::size_t above_bft = 0;
  std::size_t above_majority = 0;

  for (std::size_t s = 0; s < samples; ++s) {
    const double t = horizon_days * static_cast<double>(s) /
                     static_cast<double>(samples - 1);
    ExposurePoint point;
    point.t = t;
    std::vector<bool> hit(population.size(), false);
    for (const PerVuln& w : windows) {
      if (t < w.open_from) continue;
      bool any_open = false;
      for (std::size_t i = 0; i < w.replicas.size(); ++i) {
        if (t < w.replica_until[i]) {
          hit[w.replicas[i]] = true;
          any_open = true;
        }
      }
      // A vulnerability counts as open while any replica remains unpatched
      // (or, with no exposed replicas, while the global window is open).
      if (any_open || (w.replicas.empty() && t < w.open_until_global)) {
        ++point.open_vulnerabilities;
      }
    }
    double exposed = 0.0;
    for (std::size_t r = 0; r < population.size(); ++r) {
      if (hit[r]) exposed += population[r].power;
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
