// Campaign fault kinds: what a campaign cell does to its target fleet.
//
// Every kind is *component-correlated*, the paper's failure mechanism: a
// cell first draws one faulted component, and the fault then hits exactly
// the replicas whose configuration contains it. Environmental kinds
// (crash, partition, corruption) draw the component uniformly from those
// present in the fleet; adversarial kinds (collude, censor) pick it
// through the existing worst-case vulnerability adversary
// (`faults::VulnerabilityAdversary`, greedy max-coverage) — an attacker
// exploits the component with the biggest blast radius, the environment
// does not choose. The per-cell `rate` is the exploitability: each exposed
// replica succumbs independently with probability `rate` (for the
// corruption kind, `rate` is instead the per-message flip probability on
// links touching exposed replicas).
//
// Injection happens through the runtime hooks PR 8 added: node crash /
// restart (`net::SimNetwork::set_node_down`), partition groups,
// in-flight corruption (`set_corrupt_policy` + receiver-side rejection),
// and the `replication::Behavior` models for colluding equivocation and
// client-selective censorship.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "diversity/analyzer.h"
#include "replication/cluster.h"
#include "support/rng.h"

namespace findep::campaign {

enum class FaultKind : std::uint8_t {
  kCrash,         ///< exposed replicas drop off the network, no restart
  kCrashRestart,  ///< crash, then restart after the heal delay
  kPartition,     ///< exposed replicas split into their own partition,
                  ///< healed after the heal delay
  kCorrupt,       ///< messages on links touching exposed replicas flip
                  ///< bits with probability `rate` until the heal
  kCollude,       ///< exposed replicas turn Byzantine: equivocate as
                  ///< primary, endorse every digest
                  ///< (replication::Behavior::kCollude)
  kCensor,        ///< exposed replicas censor odd-id client requests when
                  ///< primary (replication::Behavior::kCensor)
};

/// All kinds in declaration order, with their spelled names (the `fault`
/// axis values of a campaign spec).
[[nodiscard]] const std::vector<std::pair<std::string, FaultKind>>&
fault_kinds();

[[nodiscard]] const std::string& to_string(FaultKind kind);

/// Throws std::invalid_argument (listing the known names) on an unknown
/// kind name.
[[nodiscard]] FaultKind parse_fault_kind(const std::string& name);

/// True for kinds realized as a `replication::Behavior` fixed at cluster
/// construction (the vulnerability is present from t = 0) rather than a
/// scheduled runtime injection.
[[nodiscard]] bool is_byzantine(FaultKind kind) noexcept;

/// One cell's resolved fault: the component drawn, who it hits, when.
struct FaultPlan {
  FaultKind kind = FaultKind::kCrash;
  config::ComponentId component;
  config::ComponentKind component_kind = config::ComponentKind::kOperatingSystem;
  /// Replica indices that succumbed (for kCorrupt: the exposed link
  /// endpoints; per-message draws happen at send time).
  std::vector<std::size_t> victims;
  /// Power fraction exposed to the component (pre-rate) — the Σ f_t^i
  /// blast radius of the safety condition.
  double exposed_fraction = 0.0;
  /// Power fraction that actually succumbed.
  double victim_fraction = 0.0;
  double rate = 1.0;
  double inject_at = 2.0;
  /// Crash-restart / partition / corruption end this long after
  /// inject_at; kCrash never heals.
  double heal_after = 4.0;

  /// True when the fault stops acting at inject_at + heal_after.
  [[nodiscard]] bool heals() const noexcept {
    return kind == FaultKind::kCrashRestart || kind == FaultKind::kPartition ||
           kind == FaultKind::kCorrupt;
  }
  /// Simulated time after which the cluster is expected to converge.
  [[nodiscard]] double settle_at() const noexcept {
    return heals() ? inject_at + heal_after : inject_at;
  }
};

/// Resolves a cell's fault against a fleet: draws the component (worst-
/// case for adversarial kinds, uniform via `rng` otherwise), applies the
/// per-replica rate, and looks the component's kind up in `catalog` (the
/// catalog the target families sample from). Deterministic in (fleet,
/// rng state).
[[nodiscard]] FaultPlan plan_fault(
    FaultKind kind, double rate,
    const std::vector<diversity::ReplicaRecord>& fleet,
    const config::ComponentCatalog& catalog, support::Rng& rng);

/// Behaviors vector for cluster construction: victims of a byzantine
/// kind get their Behavior, everyone else stays honest.
[[nodiscard]] std::vector<replication::Behavior> planned_behaviors(
    const FaultPlan& plan, std::size_t n);

/// Schedules the plan's runtime injections on the cluster's simulator
/// (no-op for byzantine kinds). `link_rng` feeds the per-message
/// corruption draws and must stay alive for the whole run — the shared
/// pointer is captured by the installed policy.
void schedule_fault(const FaultPlan& plan, replication::Cluster& cluster,
                    const std::shared_ptr<support::Rng>& link_rng);

}  // namespace findep::campaign
