// Stake registry, delegation, VRF sortition, diversity-aware committees.
#include <gtest/gtest.h>

#include <cmath>

#include "committee/diversity_aware.h"
#include "committee/sortition.h"
#include "committee/stake.h"
#include "config/sampler.h"
#include "diversity/metrics.h"
#include "support/assert.h"

namespace findep::committee {
namespace {

struct Fixture {
  crypto::KeyRegistry crypto_registry;
  StakeRegistry stake;
  std::vector<crypto::KeyPair> keys;
  config::ComponentCatalog catalog = config::standard_catalog();

  void add_participants(std::size_t n, double stake_each = 1.0,
                        bool attested = true) {
    config::ConfigurationSampler sampler(catalog,
                                         config::SamplerOptions{});
    const auto configs = sampler.distinct_configurations(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(crypto::KeyPair::derive(1000 + keys.size()));
      crypto_registry.enroll(keys.back());
      stake.add(std::string("p").append(std::to_string(stake.size())),
                stake_each, configs[i], attested, keys.back().public_key());
    }
  }
};

TEST(Stake, AddAndTotals) {
  Fixture f;
  f.add_participants(4, 2.5);
  EXPECT_EQ(f.stake.size(), 4u);
  EXPECT_DOUBLE_EQ(f.stake.total_stake(), 10.0);
  EXPECT_DOUBLE_EQ(f.stake.effective_stake(0), 2.5);
}

TEST(Stake, DelegationMovesControl) {
  Fixture f;
  f.add_participants(3);
  f.stake.delegate(1, 0);
  EXPECT_DOUBLE_EQ(f.stake.effective_stake(0), 2.0);
  EXPECT_DOUBLE_EQ(f.stake.effective_stake(1), 0.0);
  // Undelegate restores.
  f.stake.delegate(1, std::nullopt);
  EXPECT_DOUBLE_EQ(f.stake.effective_stake(0), 1.0);
  EXPECT_DOUBLE_EQ(f.stake.effective_stake(1), 1.0);
}

TEST(Stake, DelegationChainsRejected) {
  Fixture f;
  f.add_participants(3);
  f.stake.delegate(1, 0);
  // The custodian (0) cannot delegate away.
  EXPECT_THROW(f.stake.delegate(0, 2), support::ContractViolation);
  // Nobody can delegate to a delegator.
  EXPECT_THROW(f.stake.delegate(2, 1), support::ContractViolation);
  EXPECT_THROW(f.stake.delegate(2, 2), support::ContractViolation);
}

TEST(Stake, EffectivePopulationCollapsesDelegates) {
  // §III-A: delegation to an exchange collapses diversity — the
  // custodian's configuration represents everyone's stake.
  Fixture f;
  f.add_participants(5);
  f.stake.delegate(1, 0);
  f.stake.delegate(2, 0);
  const auto population = f.stake.effective_population();
  EXPECT_EQ(population.size(), 3u);  // 0 (custodian), 3, 4
  double custodian_power = 0.0;
  for (const auto& rec : population) {
    custodian_power = std::max(custodian_power, rec.power);
  }
  EXPECT_DOUBLE_EQ(custodian_power, 3.0);
  // Entropy drops relative to no delegation.
  const double h_delegated = diversity::shannon_entropy(
      diversity::DiversityAnalyzer::distribution_of(population));
  EXPECT_LT(h_delegated, std::log2(5.0));
}

TEST(Sortition, ExpectedCommitteeSize) {
  Fixture f;
  f.add_participants(60);
  Sortition sortition(f.stake, 12.0);
  std::size_t total_seats = 0;
  constexpr std::uint64_t kRounds = 150;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    total_seats += sortition.select(round, f.keys).seats.size();
  }
  const double mean =
      static_cast<double>(total_seats) / static_cast<double>(kRounds);
  EXPECT_NEAR(mean, 12.0, 1.2);
}

TEST(Sortition, StakeProportionalSelection) {
  Fixture f;
  f.add_participants(2, 1.0);
  // Third participant holds 8x the stake.
  config::ConfigurationSampler sampler(f.catalog,
                                       config::SamplerOptions{});
  f.keys.push_back(crypto::KeyPair::derive(5000));
  f.crypto_registry.enroll(f.keys.back());
  f.stake.add("whale", 8.0, sampler.distinct_configurations(3)[2], true,
              f.keys.back().public_key());

  Sortition sortition(f.stake, 1.0);
  EXPECT_NEAR(sortition.selection_probability(2), 0.8, 1e-12);
  std::size_t whale = 0, small = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    for (const auto& seat : sortition.select(round, f.keys).seats) {
      (seat.participant == 2 ? whale : small) += 1;
    }
  }
  EXPECT_GT(whale, small * 3);
}

TEST(Sortition, TicketsVerify) {
  Fixture f;
  f.add_participants(20);
  Sortition sortition(f.stake, 8.0);
  const SortitionResult result = sortition.select(3, f.keys);
  ASSERT_FALSE(result.seats.empty());
  for (const auto& seat : result.seats) {
    EXPECT_TRUE(sortition.verify(f.crypto_registry, 3, seat));
    // Same ticket fails for a different round.
    EXPECT_FALSE(sortition.verify(f.crypto_registry, 4, seat));
  }
}

TEST(Sortition, ForgedTicketRejected) {
  Fixture f;
  f.add_participants(8);
  Sortition sortition(f.stake, 8.0);  // everyone selected (p = 1)
  const SortitionResult result = sortition.select(0, f.keys);
  ASSERT_FALSE(result.seats.empty());
  SortitionTicket forged = result.seats[0];
  forged.participant = (forged.participant + 1) % 8;  // claim another seat
  EXPECT_FALSE(sortition.verify(f.crypto_registry, 0, forged));
}

TEST(Sortition, DelegatedStakeCannotWinSeats) {
  Fixture f;
  f.add_participants(4);
  f.stake.delegate(1, 0);
  Sortition sortition(f.stake, 4.0);
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (const auto& seat : sortition.select(round, f.keys).seats) {
      EXPECT_NE(seat.participant, 1u);
    }
  }
}

TEST(Committee, UnconstrainedAdmitsEverything) {
  Fixture f;
  f.add_participants(6);
  std::vector<ParticipantId> all = {0, 1, 2, 3, 4, 5};
  const Committee c = form_committee(f.stake, all, SelectionPolicy{});
  EXPECT_EQ(c.members.size(), 6u);
  EXPECT_NEAR(c.admitted_fraction, 1.0, 1e-12);
  EXPECT_NEAR(c.entropy_bits, std::log2(6.0), 1e-9);
}

TEST(Committee, CapLimitsDominantConfiguration) {
  Fixture f;
  f.add_participants(4, 1.0);
  // A whale sharing participant 0's configuration.
  f.keys.push_back(crypto::KeyPair::derive(6000));
  f.crypto_registry.enroll(f.keys.back());
  f.stake.add("whale", 10.0, f.stake.get(0).configuration, true,
              f.keys.back().public_key());

  std::vector<ParticipantId> all = {0, 1, 2, 3, 4};
  SelectionPolicy cap;
  cap.per_config_cap = 0.30;
  const Committee c = form_committee(f.stake, all, cap);
  // The whale's configuration is clipped to ≤ 30% of committee power.
  const double share =
      diversity::berger_parker(c.distribution);
  EXPECT_LE(share, 0.30 + 1e-9);
  EXPECT_LT(c.admitted_fraction, 1.0);
  EXPECT_FALSE(c.bft.single_point_of_failure);
}

TEST(Committee, AttestedOnlyFiltersTierTwo) {
  Fixture f;
  f.add_participants(3, 1.0, true);
  f.add_participants(3, 1.0, false);
  std::vector<ParticipantId> all = {0, 1, 2, 3, 4, 5};
  SelectionPolicy policy;
  policy.attested_only = true;
  const Committee c = form_committee(f.stake, all, policy);
  EXPECT_EQ(c.members.size(), 3u);
  for (const auto& m : c.members) {
    EXPECT_TRUE(f.stake.get(m.participant).attested);
  }
}

TEST(Committee, AttestedWeightBoostsTierOne) {
  Fixture f;
  f.add_participants(2, 1.0, true);
  f.add_participants(2, 1.0, false);
  std::vector<ParticipantId> all = {0, 1, 2, 3};
  SelectionPolicy policy;
  policy.attested_weight = 3.0;
  const Committee c = form_committee(f.stake, all, policy);
  double attested_power = 0.0, total = 0.0;
  for (const auto& m : c.members) {
    total += m.weight;
    if (f.stake.get(m.participant).attested) attested_power += m.weight;
  }
  EXPECT_NEAR(attested_power / total, 0.75, 1e-9);
}

TEST(Committee, EmptyCandidateListYieldsEmptyCommittee) {
  Fixture f;
  f.add_participants(2);
  const Committee c = form_committee(f.stake, {}, SelectionPolicy{});
  EXPECT_TRUE(c.members.empty());
  EXPECT_DOUBLE_EQ(c.total_weight, 0.0);
}

TEST(Committee, RejectsInvalidPolicy) {
  Fixture f;
  f.add_participants(2);
  SelectionPolicy bad_cap;
  bad_cap.per_config_cap = 0.0;
  EXPECT_THROW((void)form_committee(f.stake, {0}, bad_cap),
               support::ContractViolation);
  SelectionPolicy bad_weight;
  bad_weight.attested_weight = 0.5;
  EXPECT_THROW((void)form_committee(f.stake, {0}, bad_weight),
               support::ContractViolation);
}

}  // namespace
}  // namespace findep::committee
