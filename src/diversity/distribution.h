// The configuration distribution p = (p1, ..., pk) of §IV-A.
//
// A `ConfigDistribution` tracks, per distinct replica configuration d_i:
//   - its *voting power* (hashrate, stake, or replica count — the paper's
//     abstraction n_t),
//   - its *configuration abundance* (number of individual replicas running
//     that configuration, §IV-B).
// Relative configuration abundance (= mining-power share) is the
// normalized power vector, which is what all entropy metrics consume.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/replica_config.h"
#include "crypto/sha256.h"

namespace findep::diversity {

/// Voting power: replica counts, hashrate shares and stake all map onto
/// this abstraction (§II-A).
using VotingPower = double;

/// Per-configuration entry.
struct ConfigEntry {
  config::ConfigurationId id;
  VotingPower power = 0.0;
  /// Configuration abundance: individuals running this configuration.
  std::size_t abundance = 0;
};

/// A distribution of voting power over distinct replica configurations.
class ConfigDistribution {
 public:
  ConfigDistribution() = default;

  /// Adds `power` (and `individuals` replicas) to configuration `id`.
  /// Power must be non-negative.
  void add(const config::ConfigurationId& id, VotingPower power,
           std::size_t individuals = 1);

  /// Convenience for populations of concrete configurations.
  void add(const config::ReplicaConfiguration& cfg, VotingPower power,
           std::size_t individuals = 1);

  /// Makes room for `n` distinct configurations, so a distribution built
  /// to a known size grows its storage once.
  void reserve(std::size_t n);

  /// Builds a distribution from raw shares; synthetic configuration ids
  /// are derived from the index. Intended for literature datasets (e.g.
  /// the Example-1 mining-pool vector).
  [[nodiscard]] static ConfigDistribution from_shares(
      std::span<const double> shares);

  /// Uniform distribution over `k` synthetic configurations, each with
  /// abundance `omega` — the (κ, ω) populations of Definition 2.
  [[nodiscard]] static ConfigDistribution uniform(std::size_t k,
                                                  std::size_t omega = 1,
                                                  VotingPower total = 1.0);

  [[nodiscard]] std::size_t support_size() const noexcept;  // k' = |p'|
  [[nodiscard]] VotingPower total_power() const noexcept { return total_; }
  [[nodiscard]] std::size_t total_abundance() const noexcept;

  [[nodiscard]] bool contains(const config::ConfigurationId& id) const;
  [[nodiscard]] VotingPower power_of(const config::ConfigurationId& id) const;
  [[nodiscard]] std::size_t abundance_of(
      const config::ConfigurationId& id) const;
  /// Relative configuration abundance (share of total power) of one
  /// configuration. Requires total_power() > 0.
  [[nodiscard]] double share_of(const config::ConfigurationId& id) const;

  /// Normalized power shares of the support (nonzero entries only), in
  /// insertion order. Requires total_power() > 0.
  [[nodiscard]] std::vector<double> shares() const;

  /// Entries in insertion order (stable across runs).
  [[nodiscard]] const std::vector<ConfigEntry>& entries() const noexcept {
    return entries_;
  }

  /// Entries sorted by descending power (oligopoly view).
  [[nodiscard]] std::vector<ConfigEntry> sorted_by_power() const;

  /// Multiplies the abundance (and power proportionally, when
  /// `scale_power`) of one configuration — the abundance-scaling operation
  /// behind Proposition 1.
  void scale(const config::ConfigurationId& id, double power_factor,
             std::size_t abundance_factor);

  /// Returns a copy whose power vector is renormalized to sum to 1.
  [[nodiscard]] ConfigDistribution normalized() const;

 private:
  std::vector<ConfigEntry> entries_;
  std::unordered_map<config::ConfigurationId, std::size_t> index_;
  VotingPower total_ = 0.0;
};

}  // namespace findep::diversity
