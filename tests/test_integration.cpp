// End-to-end pipelines across modules — the scenarios the paper describes,
// executed: attestation-driven discovery feeding the diversity analysis;
// correlated faults feeding BFT; pool compromise feeding Nakamoto attacks.
#include <gtest/gtest.h>

#include <cmath>

#include "attest/registry.h"
#include "committee/diversity_aware.h"
#include "committee/sortition.h"
#include "config/sampler.h"
#include "diversity/manager.h"
#include "diversity/metrics.h"
#include "faults/adversary.h"
#include "faults/injector.h"
#include "nakamoto/attack.h"
#include "nakamoto/pools.h"
#include "replication/cluster.h"
#include "support/assert.h"

namespace findep {
namespace {

// Pipeline 1: attest → registry → auditor reconstruction → analyzer.
TEST(Integration, AttestationToDiversityReport) {
  crypto::KeyRegistry keys;
  support::Rng rng(1);
  const config::ComponentCatalog catalog = config::standard_catalog();
  attest::AttestationAuthority authority(keys, rng);
  attest::AttestationRegistry registry(keys, authority.root_key());

  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 0.8,
                                      .attestable_fraction = 1.0});
  std::vector<attest::PlatformModule> platforms;
  std::unordered_map<crypto::PublicKey, attest::CommitmentOpening> openings;
  for (std::size_t i = 0; i < 24; ++i) {
    const auto cfg = sampler.sample(rng);
    const auto hw = cfg.component(config::ComponentKind::kTrustedHardware);
    platforms.emplace_back(keys, rng, authority, *hw, cfg);
    ASSERT_TRUE(
        registry.admit(platforms.back().quote(registry.challenge()), 1.0));
    openings[platforms.back().vote_key()] =
        platforms.back().open_commitment();
  }

  const diversity::ConfigDistribution dist =
      registry.reconstruct_distribution(openings);
  EXPECT_DOUBLE_EQ(dist.total_power(), 24.0);
  EXPECT_GE(dist.support_size(), 2u);
  const double h = diversity::shannon_entropy(dist);
  EXPECT_GT(h, 0.0);
  EXPECT_LE(h, std::log2(24.0) + 1e-9);
}

// Pipeline 2: diversity analysis predicts which fault pattern breaks BFT,
// and the BFT cluster confirms it.
TEST(Integration, CorrelatedFaultStallsBftExactlyWhenPredicted) {
  // 4 replicas, two sharing a configuration (abundance 2 on one config).
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  auto configs = sampler.distinct_configurations(3);
  configs.push_back(configs[0]);  // replica 3 clones replica 0's config

  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : configs) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  // Prediction: one configuration fault compromises 2/4 = 50% > 1/3.
  faults::FaultInjector injector(population);
  const faults::CompromiseResult predicted =
      injector.worst_case_components(1);
  EXPECT_TRUE(predicted.breaks(diversity::kBftThreshold));
  ASSERT_EQ(predicted.compromised.size(), 2u);

  // Execution: silence exactly the predicted replicas.
  using replication::Behavior;
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  for (const std::size_t r : predicted.compromised) {
    behaviors[r] = Behavior::kSilent;
  }
  replication::ClusterOptions opt;
  opt.replica.request_timeout = 0.5;
  replication::Cluster broken(4, opt, behaviors);
  broken.submit();
  EXPECT_FALSE(broken.run_until_executed(1, 15.0));
  EXPECT_TRUE(broken.logs_consistent());  // safe, just not live

  // Control: a fault on a *distinct* configuration (1/4 ≤ 1/3) is fine.
  std::vector<Behavior> single(4, Behavior::kHonest);
  single[1] = Behavior::kSilent;
  replication::Cluster healthy(4, opt, single);
  healthy.submit();
  EXPECT_TRUE(healthy.run_until_executed(1, 15.0));
}

// Pipeline 3: Lazarus-style assignment prevents the correlated stall.
TEST(Integration, DiversityManagementRestoresFaultIndependence) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  diversity::LazarusStyleAssigner assigner(catalog);
  const auto configs = assigner.assign(4);
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : configs) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  faults::FaultInjector injector(population);
  // Now the worst single component fault hits at most... the TEE axis has
  // variety 4, so distinct assignment keeps every component unique: one
  // fault = one replica = 25% ≤ 1/3.
  const faults::CompromiseResult worst = injector.worst_case_components(1);
  EXPECT_FALSE(worst.breaks(diversity::kBftThreshold));
}

// Pipeline 4: Example-1 pools → component compromise → double-spend odds.
TEST(Integration, PoolSoftwareCompromiseEscalatesAttack) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  // Best case (paper): distinct pool configurations.
  const nakamoto::PoolSet best = nakamoto::PoolSet::example1(catalog, true);
  // Realistic: Zipf-skewed software choices across pools.
  const nakamoto::PoolSet real =
      nakamoto::PoolSet::example1(catalog, false, 11);

  const auto worst_component_share = [&](const nakamoto::PoolSet& pools) {
    faults::FaultInjector injector(pools.as_population());
    return injector.worst_case_components(1).compromised_fraction;
  };
  const double q_best = worst_component_share(best);
  const double q_real = worst_component_share(real);
  EXPECT_GE(q_real, q_best - 1e-12);

  // The attack math amplifies the difference at 6 confirmations.
  const double p_best = nakamoto::attack_success_closed_form(q_best, 6);
  const double p_real = nakamoto::attack_success_closed_form(q_real, 6);
  EXPECT_GE(p_real, p_best);
  // Monoculture across pools is fatal: the whole network's power shares
  // components somewhere.
  const nakamoto::PoolSet mono = nakamoto::PoolSet::example1(
      config::monoculture_catalog(), false, 12);
  EXPECT_DOUBLE_EQ(worst_component_share(mono), 1.0);
  EXPECT_DOUBLE_EQ(
      nakamoto::attack_success_closed_form(worst_component_share(mono), 6),
      1.0);
}

// Pipeline 5: sortition → diversity-aware committee → weighted BFT run.
TEST(Integration, DiverseCommitteeRunsWeightedConsensus) {
  crypto::KeyRegistry crypto_registry;
  committee::StakeRegistry stake;
  std::vector<crypto::KeyPair> keys;
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  const auto configs = sampler.distinct_configurations(12);
  support::Rng rng(3);
  for (std::size_t i = 0; i < 12; ++i) {
    keys.push_back(crypto::KeyPair::derive(9000 + i));
    crypto_registry.enroll(keys.back());
    stake.add("p" + std::to_string(i), rng.uniform(1.0, 3.0), configs[i],
              true, keys.back().public_key());
  }
  committee::Sortition sortition(stake, 12.0);  // everyone eligible
  const committee::SortitionResult seats = sortition.select(1, keys);
  std::vector<committee::ParticipantId> candidates;
  for (const auto& seat : seats.seats) candidates.push_back(seat.participant);
  ASSERT_GE(candidates.size(), 4u);

  committee::SelectionPolicy policy;
  policy.per_config_cap = 0.25;
  const committee::Committee formed =
      committee::form_committee(stake, candidates, policy);
  ASSERT_GE(formed.members.size(), 4u);
  EXPECT_FALSE(formed.bft.single_point_of_failure);

  // Run weighted PBFT with the committee's weights.
  std::vector<double> weights;
  for (const auto& m : formed.members) weights.push_back(m.weight);
  replication::Cluster cluster(weights, replication::ClusterOptions{}, {});
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

// Pipeline 6: the §V two-tier proposal measurably improves resilience.
TEST(Integration, TwoTierWeightingImprovesCommitteeResilience) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 0.5,
                                      .attestable_fraction = 1.0});
  support::Rng rng(4);
  std::vector<diversity::ReplicaRecord> population;
  for (std::size_t i = 0; i < 30; ++i) {
    auto cfg = sampler.sample(rng);
    diversity::ReplicaRecord rec{cfg, 1.0, i % 2 == 0};
    if (!rec.attested) {
      rec.configuration.clear(config::ComponentKind::kTrustedHardware);
    }
    population.push_back(rec);
  }
  const diversity::TwoTierOutcome flat =
      diversity::TwoTierPolicy(1.0).apply(population);
  const diversity::TwoTierOutcome boosted =
      diversity::TwoTierPolicy(4.0).apply(population);
  EXPECT_LT(boosted.unknown_share, flat.unknown_share);
  EXPECT_GE(boosted.bft.min_faults, flat.bft.min_faults);
}

}  // namespace
}  // namespace findep
