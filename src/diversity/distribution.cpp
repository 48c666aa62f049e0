#include "diversity/distribution.h"

#include <algorithm>

#include "support/assert.h"

namespace findep::diversity {

namespace {
config::ConfigurationId synthetic_id(std::uint64_t index) {
  return crypto::Sha256{}
      .update("findep/synthetic-config/v1")
      .update_u64(index)
      .finish();
}
}  // namespace

void ConfigDistribution::add(const config::ConfigurationId& id,
                             VotingPower power, std::size_t individuals) {
  FINDEP_REQUIRE(power >= 0.0);
  const auto it = index_.find(id);
  if (it == index_.end()) {
    index_.emplace(id, entries_.size());
    entries_.push_back(ConfigEntry{id, power, individuals});
  } else {
    entries_[it->second].power += power;
    entries_[it->second].abundance += individuals;
  }
  total_ += power;
}

void ConfigDistribution::add(const config::ReplicaConfiguration& cfg,
                             VotingPower power, std::size_t individuals) {
  add(cfg.digest(), power, individuals);
}

void ConfigDistribution::reserve(std::size_t n) {
  entries_.reserve(n);
  index_.reserve(n);
}

ConfigDistribution ConfigDistribution::from_shares(
    std::span<const double> shares) {
  ConfigDistribution dist;
  dist.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    dist.add(synthetic_id(i), shares[i], 1);
  }
  return dist;
}

ConfigDistribution ConfigDistribution::uniform(std::size_t k,
                                               std::size_t omega,
                                               VotingPower total) {
  FINDEP_REQUIRE(k > 0);
  FINDEP_REQUIRE(omega > 0);
  FINDEP_REQUIRE(total > 0.0);
  ConfigDistribution dist;
  dist.reserve(k);
  const VotingPower per = total / static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    dist.add(synthetic_id(i), per, omega);
  }
  return dist;
}

std::size_t ConfigDistribution::support_size() const noexcept {
  std::size_t k = 0;
  for (const auto& e : entries_) {
    if (e.power > 0.0) ++k;
  }
  return k;
}

std::size_t ConfigDistribution::total_abundance() const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) n += e.abundance;
  return n;
}

bool ConfigDistribution::contains(const config::ConfigurationId& id) const {
  return index_.contains(id);
}

VotingPower ConfigDistribution::power_of(
    const config::ConfigurationId& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? 0.0 : entries_[it->second].power;
}

std::size_t ConfigDistribution::abundance_of(
    const config::ConfigurationId& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? 0 : entries_[it->second].abundance;
}

double ConfigDistribution::share_of(const config::ConfigurationId& id) const {
  FINDEP_REQUIRE(total_ > 0.0);
  return power_of(id) / total_;
}

std::vector<double> ConfigDistribution::shares() const {
  FINDEP_REQUIRE_MSG(total_ > 0.0, "shares need positive total power");
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (e.power > 0.0) out.push_back(e.power / total_);
  }
  return out;
}

std::vector<ConfigEntry> ConfigDistribution::sorted_by_power() const {
  std::vector<ConfigEntry> sorted = entries_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ConfigEntry& a, const ConfigEntry& b) {
                     return a.power > b.power;
                   });
  return sorted;
}

void ConfigDistribution::scale(const config::ConfigurationId& id,
                               double power_factor,
                               std::size_t abundance_factor) {
  FINDEP_REQUIRE(power_factor >= 0.0);
  FINDEP_REQUIRE(abundance_factor > 0);
  const auto it = index_.find(id);
  FINDEP_REQUIRE_MSG(it != index_.end(), "unknown configuration");
  ConfigEntry& e = entries_[it->second];
  total_ -= e.power;
  e.power *= power_factor;
  e.abundance *= abundance_factor;
  total_ += e.power;
}

ConfigDistribution ConfigDistribution::normalized() const {
  FINDEP_REQUIRE(total_ > 0.0);
  ConfigDistribution out;
  for (const auto& e : entries_) {
    out.add(e.id, e.power / total_, e.abundance);
  }
  return out;
}

}  // namespace findep::diversity
