// DiversityAnalyzer: from a population of (configuration, voting power)
// records to the paper's diversity and resilience quantities.
//
// Beyond the configuration-level entropy of §IV, the analyzer also works
// at *component* granularity: a vulnerability lives in one component
// (§II-B), so the true blast radius of a single fault is the total power
// of all replicas sharing that component — across configurations. This is
// the quantity the safety condition Σ f_t^i actually depends on; the
// configuration-level view is the upper bound the paper analyzes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "config/replica_config.h"
#include "diversity/distribution.h"
#include "diversity/resilience.h"

namespace findep::diversity {

/// One replica as seen by the analyzer (e.g. from the attestation
/// registry): its attested configuration and voting power.
struct ReplicaRecord {
  config::ReplicaConfiguration configuration;
  VotingPower power = 0.0;
  /// Whether the configuration is known through remote attestation (§V);
  /// non-attested replicas are treated as a correlated unknown mass in
  /// worst-case analyses.
  bool attested = true;
};

/// Blast radius of the single worst component fault.
struct ComponentExposure {
  config::ComponentId component;
  config::ComponentKind kind = config::ComponentKind::kOperatingSystem;
  /// Fraction of total power running this component.
  double power_fraction = 0.0;
  std::size_t replicas = 0;
};

/// Full diversity report.
struct DiversityReport {
  std::size_t replica_count = 0;
  VotingPower total_power = 0.0;
  double attested_fraction = 1.0;  // power-weighted

  // Configuration-level (§IV-A).
  std::size_t support = 0;                // k' = |p'|
  double entropy_bits = 0.0;              // H(p)
  double max_entropy_bits = 0.0;          // log2 support
  double evenness = 0.0;                  // H / log2 k'
  double effective_configs = 0.0;         // 2^H
  double dominance = 0.0;                 // Berger–Parker
  ResilienceSummary bft;                  // threshold 1/3
  ResilienceSummary nakamoto;             // threshold 1/2

  // Component-level.
  std::vector<ComponentExposure> worst_per_kind;  // one per kind present
  std::optional<ComponentExposure> worst_overall;

  /// Per-kind Shannon entropy of the power distribution over that kind's
  /// variants (diversity per axis). Ordered so report consumers can
  /// iterate it without pinning hash-bucket layout into their output.
  std::map<config::ComponentKind, double> kind_entropy_bits;

  /// Human-readable multi-line rendering.
  [[nodiscard]] std::string to_string(
      const config::ComponentCatalog* catalog = nullptr) const;
};

/// Computes reports from replica populations.
class DiversityAnalyzer {
 public:
  /// Builds the configuration-level distribution of a population
  /// (attested replicas only unless `include_unattested`).
  [[nodiscard]] static ConfigDistribution distribution_of(
      const std::vector<ReplicaRecord>& population,
      bool include_unattested = true);

  /// Full report over a population. Requires non-empty population with
  /// positive total power.
  ///
  /// Memoized process-wide: results are cached under a digest of the
  /// population (configuration digests, power bits, attestation flags),
  /// so scenario instances that differ only in downstream parameters —
  /// e.g. every α point of a two_tier sweep at one (fraction, seed) —
  /// pay for the distribution computations once (ROADMAP hot path). The
  /// cache is thread-safe; since analyze() is a pure function, a cached
  /// result is bit-identical to a recomputed one.
  [[nodiscard]] static DiversityReport analyze(
      const std::vector<ReplicaRecord>& population);

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Process-wide memoization counters (bench/perf reads them around
  /// each pass; totals depend on worker interleaving, so they are
  /// intentionally NOT per-run metrics).
  [[nodiscard]] static CacheStats cache_stats() noexcept;
  /// Drops every memoized report and zeroes the counters (tests and
  /// bench/perf).
  static void reset_cache() noexcept;
};

}  // namespace findep::diversity
