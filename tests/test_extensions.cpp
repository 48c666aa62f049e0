// Extension features: component-aware committee caps, proactive recovery,
// and the selfish-mining baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "committee/diversity_aware.h"
#include "config/sampler.h"
#include "diversity/manager.h"
#include "faults/windows.h"
#include "nakamoto/selfish.h"
#include "support/assert.h"

namespace findep {
namespace {

// --- component-aware committee caps --------------------------------------

struct CommitteeFixture {
  crypto::KeyRegistry crypto_registry;
  committee::StakeRegistry stake;
  config::ComponentCatalog catalog = config::standard_catalog();

  void add(const config::ReplicaConfiguration& cfg, double power) {
    const auto keys = crypto::KeyPair::derive(4000 + stake.size());
    stake.add(std::string("p").append(std::to_string(stake.size())), power,
              cfg, true, keys.public_key());
  }
  [[nodiscard]] std::vector<committee::ParticipantId> everyone() const {
    std::vector<committee::ParticipantId> all;
    for (committee::ParticipantId i = 0; i < stake.size(); ++i) {
      all.push_back(i);
    }
    return all;
  }
};

TEST(ComponentCap, BoundsSharedComponentExposure) {
  // 4 distinct configurations, but two of them share one OS. The config
  // cap alone leaves that OS at 50%; the component cap pushes it to 1/3.
  CommitteeFixture f;
  config::ConfigurationSampler sampler(f.catalog, config::SamplerOptions{});
  auto configs = sampler.distinct_configurations(4);
  const auto shared_os =
      *configs[0].component(config::ComponentKind::kOperatingSystem);
  configs[1].set(f.catalog, shared_os);
  for (const auto& cfg : configs) f.add(cfg, 1.0);

  committee::SelectionPolicy config_only;
  config_only.per_config_cap = 0.30;
  const committee::Committee loose =
      committee::form_committee(f.stake, f.everyone(), config_only);
  EXPECT_GT(loose.worst_component_exposure, 0.45);

  committee::SelectionPolicy strict = config_only;
  strict.per_component_cap = 1.0 / 3.0;
  const committee::Committee tight =
      committee::form_committee(f.stake, f.everyone(), strict);
  // The cap is enforced within the documented 0.1% slack.
  EXPECT_LE(tight.worst_component_exposure, (1.0 / 3.0) * 1.002);
  EXPECT_LT(tight.admitted_fraction, loose.admitted_fraction + 1e-12);
  EXPECT_EQ(tight.members.size(), 4u);  // scaled, not excluded
}

TEST(ComponentCap, UnsatisfiableCapReportsHonestly) {
  // Every member shares the same network stack: no scaling can push that
  // component below 100%. The committee must not collapse to zero.
  CommitteeFixture f;
  config::ConfigurationSampler sampler(f.catalog, config::SamplerOptions{});
  auto configs = sampler.distinct_configurations(4);
  const auto shared =
      *configs[0].component(config::ComponentKind::kNetworkStack);
  for (auto& cfg : configs) cfg.set(f.catalog, shared);
  for (const auto& cfg : configs) f.add(cfg, 1.0);

  committee::SelectionPolicy policy;
  policy.per_component_cap = 0.25;
  const committee::Committee c =
      committee::form_committee(f.stake, f.everyone(), policy);
  EXPECT_EQ(c.members.size(), 4u);
  EXPECT_GT(c.total_weight, 0.5);  // not collapsed
  EXPECT_NEAR(c.worst_component_exposure, 1.0, 1e-9);  // reported truth
}

TEST(ComponentCap, NoOpWhenAlreadyDiverse) {
  CommitteeFixture f;
  config::ConfigurationSampler sampler(f.catalog, config::SamplerOptions{});
  for (const auto& cfg : sampler.distinct_configurations(4)) {
    f.add(cfg, 1.0);
  }
  committee::SelectionPolicy policy;
  policy.per_component_cap = 0.5;  // TEE axis has 4 variants over 4 members
  const committee::Committee c =
      committee::form_committee(f.stake, f.everyone(), policy);
  EXPECT_NEAR(c.admitted_fraction, 1.0, 1e-9);
  EXPECT_LE(c.worst_component_exposure, 0.5 + 1e-9);
}

// --- proactive recovery -----------------------------------------------

std::vector<diversity::ReplicaRecord> recovery_population(
    std::size_t replicas = 8) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg :
       diversity::LazarusStyleAssigner(catalog).assign(replicas)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  return population;
}

faults::VulnerabilityCatalog one_vuln(const config::ComponentId component) {
  faults::VulnerabilityCatalog catalog;
  faults::Vulnerability v;
  v.component = component;
  v.discovered_at = 10.0;
  v.patched_at = 20.0;
  catalog.add(v);
  return catalog;
}

TEST(Recovery, BoundsDeployLagByPeriod) {
  const auto population = recovery_population();
  const auto os = *population[0].configuration.component(
      config::ComponentKind::kOperatingSystem);
  const auto vulns = one_vuln(os);

  faults::PatchLagModel patching;
  patching.mean_deploy_lag_days = 1e9;  // replicas never patch alone

  // Without recovery the exposure runs to the horizon.
  const auto lazy =
      faults::compute_exposure(population, vulns, 100.0, 201, patching);
  EXPECT_GT(lazy.points.back().exposed_fraction, 0.0);

  // Weekly recovery ends it within one period of the patch release.
  faults::RecoverySchedule weekly;
  weekly.period_days = 7.0;
  const auto recovered =
      faults::compute_exposure(population, vulns, 100.0, 201, patching, weekly);
  EXPECT_DOUBLE_EQ(recovered.points.back().exposed_fraction, 0.0);
  for (const auto& point : recovered.points) {
    if (point.t > 20.0 + 7.0 + 1.0) {
      EXPECT_DOUBLE_EQ(point.exposed_fraction, 0.0) << point.t;
    }
  }
}

TEST(Recovery, NoPrePatchBenefit) {
  // Recovery cannot end exposure while the vulnerability is unpatched
  // (the fresh image still contains the flawed component).
  const auto population = recovery_population();
  const auto os = *population[0].configuration.component(
      config::ComponentKind::kOperatingSystem);
  const auto vulns = one_vuln(os);
  faults::PatchLagModel patching;
  patching.mean_deploy_lag_days = 0.001;  // immediate patch adoption
  faults::RecoverySchedule daily;
  daily.period_days = 1.0;
  const auto timeline =
      faults::compute_exposure(population, vulns, 40.0, 401, patching, daily);
  // Exposure exists inside the zero-day window [10, 20) despite daily
  // recovery.
  bool exposed_mid_window = false;
  for (const auto& point : timeline.points) {
    if (point.t > 11.0 && point.t < 19.0 && point.exposed_fraction > 0.0) {
      exposed_mid_window = true;
    }
  }
  EXPECT_TRUE(exposed_mid_window);
}

TEST(Recovery, ShorterPeriodsNeverIncreaseExposure) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  faults::SynthesisOptions synth;
  synth.mean_vulns_per_component = 1.0;
  synth.horizon_days = 200.0;
  synth.mean_patch_latency_days = 20.0;
  const auto vulns = faults::synthesize_catalog(catalog, synth);
  const auto population = recovery_population();
  faults::PatchLagModel patching;
  patching.mean_deploy_lag_days = 30.0;

  double prev_peak = 1.1;
  double prev_above = 1.1;
  for (const double period : {1000.0, 90.0, 30.0, 7.0}) {
    faults::RecoverySchedule schedule;
    schedule.period_days = period;
    const auto timeline = faults::compute_exposure(population, vulns, 200.0,
                                                   201, patching, schedule);
    EXPECT_LE(timeline.peak_exposed_fraction, prev_peak + 1e-9) << period;
    EXPECT_LE(timeline.time_above_bft_threshold, prev_above + 1e-9)
        << period;
    prev_peak = timeline.peak_exposed_fraction;
    prev_above = timeline.time_above_bft_threshold;
  }
}

TEST(Recovery, PeriodPastHorizonKeepsPatchLagTimeline) {
  // A vulnerability in a component no replica runs still counts in k_t
  // until its patch. A schedule with no boundary inside the horizon must
  // leave every point of the patch-lag-only timeline as it is.
  const config::ComponentCatalog catalog = config::standard_catalog();
  const auto population = recovery_population(3);
  faults::VulnerabilityCatalog vulns =
      one_vuln(*population[0].configuration.component(
          config::ComponentKind::kOperatingSystem));
  bool found_unexposed = false;
  for (const config::ComponentId os :
       catalog.of_kind(config::ComponentKind::kOperatingSystem)) {
    const bool exposed = std::any_of(
        population.begin(), population.end(), [&](const auto& replica) {
          return replica.configuration.component(
                     config::ComponentKind::kOperatingSystem) == os;
        });
    if (exposed) continue;
    faults::Vulnerability v;
    v.component = os;
    v.discovered_at = 5.0;
    v.patched_at = 30.0;
    vulns.add(v);
    found_unexposed = true;
    break;
  }
  ASSERT_TRUE(found_unexposed);

  faults::PatchLagModel patching;
  patching.mean_deploy_lag_days = 3.0;
  const auto baseline =
      faults::compute_exposure(population, vulns, 40.0, 401, patching);
  const auto recovered = faults::compute_exposure(
      population, vulns, 40.0, 401, patching,
      faults::RecoverySchedule{.period_days = 1e9});
  ASSERT_EQ(recovered.points.size(), baseline.points.size());
  for (std::size_t i = 0; i < baseline.points.size(); ++i) {
    EXPECT_EQ(recovered.points[i].open_vulnerabilities,
              baseline.points[i].open_vulnerabilities)
        << baseline.points[i].t;
    EXPECT_EQ(recovered.points[i].exposed_fraction,
              baseline.points[i].exposed_fraction)
        << baseline.points[i].t;
  }
  EXPECT_EQ(baseline.peak_open_vulnerabilities, 2u);
}

// --- selfish mining -----------------------------------------------------

TEST(SelfishMining, ThresholdFormula) {
  EXPECT_NEAR(nakamoto::selfish_mining_threshold(0.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(nakamoto::selfish_mining_threshold(1.0), 0.0, 1e-12);
  EXPECT_NEAR(nakamoto::selfish_mining_threshold(0.5), 0.25, 1e-12);
}

TEST(SelfishMining, UnprofitableBelowThresholdGammaZero) {
  support::Rng rng(1);
  const auto result =
      nakamoto::simulate_selfish_mining(0.25, 0.0, 2'000'000, rng);
  EXPECT_LT(result.revenue_share(), 0.25);
  EXPECT_LT(result.advantage(), 0.0);
}

TEST(SelfishMining, ProfitableAboveThresholdGammaZero) {
  support::Rng rng(2);
  const auto result =
      nakamoto::simulate_selfish_mining(0.40, 0.0, 2'000'000, rng);
  EXPECT_GT(result.revenue_share(), 0.40);
}

TEST(SelfishMining, GammaLowersTheBar) {
  // α = 0.3 loses at γ = 0 but wins at γ = 1 (threshold 1/3 vs 0).
  support::Rng rng(3);
  const auto shy =
      nakamoto::simulate_selfish_mining(0.30, 0.0, 2'000'000, rng);
  const auto strong =
      nakamoto::simulate_selfish_mining(0.30, 1.0, 2'000'000, rng);
  EXPECT_LT(shy.revenue_share(), 0.30);
  EXPECT_GT(strong.revenue_share(), 0.30);
}

TEST(SelfishMining, MatchesEyalSirerClosedFormAtKnownPoint) {
  // Eyal–Sirer give R(α=1/3, γ=0) = 1/3 (the break-even point).
  support::Rng rng(4);
  const auto result = nakamoto::simulate_selfish_mining(1.0 / 3.0, 0.0,
                                                        4'000'000, rng);
  EXPECT_NEAR(result.revenue_share(), 1.0 / 3.0, 0.004);
}

TEST(SelfishMining, RevenueMonotoneInAlpha) {
  support::Rng rng(5);
  double prev = -1.0;
  for (const double alpha : {0.1, 0.2, 0.3, 0.4, 0.45}) {
    const auto result =
        nakamoto::simulate_selfish_mining(alpha, 0.5, 1'000'000, rng);
    EXPECT_GT(result.revenue_share(), prev) << alpha;
    prev = result.revenue_share();
  }
}

TEST(SelfishMining, RejectsMajorityAttacker) {
  support::Rng rng(6);
  EXPECT_THROW(
      (void)nakamoto::simulate_selfish_mining(0.5, 0.0, 1000, rng),
      support::ContractViolation);
}

}  // namespace
}  // namespace findep
