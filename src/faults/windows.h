// Vulnerability-window analysis (§I, Remark 1) and proactive recovery
// (§III-A).
//
// "Even though vulnerabilities can be patched, there exists a
// vulnerability window due to the latency in patching" — attacks happen
// inside these windows. This module turns a vulnerability catalog plus a
// replica population into a timeline of exposed voting power, the k_t
// process (number of simultaneously open vulnerabilities) and the peak of
// Σ f_t^i, which is what the safety condition bounds.
//
// §III-A points to proactive security as a way to bound long-lived
// compromise when N-version diversity is too expensive. The classic
// mechanism (PBFT-PR, Sousa et al., SPARE) periodically re-provisions
// every replica from a clean image with all released patches applied; an
// optional `RecoverySchedule` adds it to the same timeline, so the
// experiment can ask how short the period must be to keep Σ f_t^i below
// the tolerated bound, against patch-lag-only operation.
#pragma once

#include <optional>
#include <vector>

#include "faults/injector.h"
#include "faults/vulnerability.h"

namespace findep::faults {

/// Per-replica patching behaviour: the replica applies a patch
/// `deploy_lag` days after the patch is released. Sampled per (replica,
/// vulnerability) from an exponential with the given mean.
struct PatchLagModel {
  double mean_deploy_lag_days = 7.0;
  std::uint64_t seed = 7;
};

/// One sample point of the exposure timeline.
struct ExposurePoint {
  double t = 0.0;
  /// Number of vulnerabilities whose windows are open (k_t).
  std::size_t open_vulnerabilities = 0;
  /// Worst-case fraction of voting power an attacker exploiting all open
  /// vulnerabilities controls at t (Σ f_t^i, deduplicated per replica).
  double exposed_fraction = 0.0;
};

struct ExposureTimeline {
  std::vector<ExposurePoint> points;
  double peak_exposed_fraction = 0.0;
  double peak_time = 0.0;
  std::size_t peak_open_vulnerabilities = 0;
  /// Fraction of sampled time where exposure exceeded the threshold.
  double time_above_bft_threshold = 0.0;
  double time_above_majority_threshold = 0.0;
};

/// Proactive-recovery schedule: replica r is re-provisioned at times
/// offset_r + k·period (offsets staggered uniformly so the system never
/// loses a large weight fraction to simultaneous reboots).
struct RecoverySchedule {
  /// Days between recoveries of one replica.
  double period_days = 30.0;
  /// Staggering: replica r's offset is (r / n) · period.
  bool staggered = true;
};

/// Computes the exposure timeline on a uniform grid of `samples` points
/// over [0, horizon_days]. Per-replica deploy lags extend each
/// vulnerability's per-replica window beyond `patched_at`. With a
/// `recovery` schedule, the first recovery boundary at or after the patch
/// release also ends a replica's window: recovery re-provisions with all
/// *released* patches. Boundaries before the patch evict the attacker,
/// but re-exploitation follows at once, so they grant no benefit.
/// A vulnerability counts in k_t while any exposed replica is unpatched,
/// or, when no replica runs its component, until its patch release.
/// Deploy lags are drawn per (vulnerability, replica), in catalog order
/// and then replica order. The samples are swept in time order over the
/// sorted window boundaries, keeping one open count per replica and per
/// vulnerability, so each point equals a rescan of every window at its
/// time; exposed power is added in replica order.
[[nodiscard]] ExposureTimeline compute_exposure(
    const std::vector<diversity::ReplicaRecord>& population,
    const VulnerabilityCatalog& catalog, double horizon_days,
    std::size_t samples, const PatchLagModel& patching,
    const std::optional<RecoverySchedule>& recovery = std::nullopt);

}  // namespace findep::faults
