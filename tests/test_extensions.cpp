// Extension features: component-aware committee caps, proactive recovery
// (with the exposure sweep pinned to a rescan), and the selfish-mining
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

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

// --- the exposure sweep against a rescan ---------------------------------

/// The exposure timeline as compute_exposure built it before the sweep:
/// per (vulnerability, replica) windows found by searching each replica's
/// components, then every window rescanned at every sample.
std::vector<faults::ExposurePoint> exposure_by_rescan(
    const std::vector<diversity::ReplicaRecord>& population,
    const faults::VulnerabilityCatalog& catalog, double horizon_days,
    std::size_t samples, const faults::PatchLagModel& patching,
    const std::optional<faults::RecoverySchedule>& recovery) {
  const auto next_recovery = [](double t, double offset, double period) {
    if (t <= offset) return offset;
    return offset + std::ceil((t - offset) / period) * period;
  };
  double total_power = 0.0;
  for (const auto& rec : population) total_power += rec.power;
  support::Rng rng(patching.seed);
  struct PerVuln {
    double open_from = 0.0;
    double open_until_global = 0.0;
    std::vector<std::size_t> replicas;
    std::vector<double> replica_until;
  };
  std::vector<PerVuln> windows;
  for (const faults::Vulnerability& v : catalog.all()) {
    PerVuln w;
    w.open_from = v.discovered_at;
    w.open_until_global = v.patched_at;
    for (std::size_t r = 0; r < population.size(); ++r) {
      const auto comp = population[r].configuration.components();
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
  std::vector<faults::ExposurePoint> points;
  for (std::size_t s = 0; s < samples; ++s) {
    faults::ExposurePoint point;
    point.t = horizon_days * static_cast<double>(s) /
              static_cast<double>(samples - 1);
    std::vector<bool> hit(population.size(), false);
    for (const PerVuln& w : windows) {
      if (point.t < w.open_from) continue;
      bool any_open = false;
      for (std::size_t i = 0; i < w.replicas.size(); ++i) {
        if (point.t < w.replica_until[i]) {
          hit[w.replicas[i]] = true;
          any_open = true;
        }
      }
      if (any_open || (w.replicas.empty() && point.t < w.open_until_global)) {
        ++point.open_vulnerabilities;
      }
    }
    double exposed = 0.0;
    for (std::size_t r = 0; r < population.size(); ++r) {
      if (hit[r]) exposed += population[r].power;
    }
    point.exposed_fraction = exposed / total_power;
    points.push_back(point);
  }
  return points;
}

void expect_sweep_matches_rescan(
    const std::vector<diversity::ReplicaRecord>& population,
    const faults::VulnerabilityCatalog& vulns, double horizon_days,
    std::size_t samples, const faults::PatchLagModel& patching,
    const std::optional<faults::RecoverySchedule>& recovery,
    const std::string& label) {
  const faults::ExposureTimeline timeline = faults::compute_exposure(
      population, vulns, horizon_days, samples, patching, recovery);
  const std::vector<faults::ExposurePoint> expected = exposure_by_rescan(
      population, vulns, horizon_days, samples, patching, recovery);
  ASSERT_EQ(timeline.points.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(timeline.points[i].t, expected[i].t) << label;
    ASSERT_EQ(timeline.points[i].open_vulnerabilities,
              expected[i].open_vulnerabilities)
        << label << " t=" << expected[i].t;
    ASSERT_EQ(timeline.points[i].exposed_fraction,
              expected[i].exposed_fraction)
        << label << " t=" << expected[i].t;
  }
}

TEST(Exposure, SweepMatchesRescanOnGridAlignedWindows) {
  // Seven Lazarus-style replicas with unequal power, sampled once a day
  // over 100 days, so every integer day is a sample. Discoveries, patch
  // releases and recovery boundaries (staggered: period 7, offset r;
  // unstaggered: period 5) land on samples. Vulnerability 2 has a
  // zero-length window on replica 1 under the staggered schedule, and 4 on
  // replica 6 under the unstaggered one. 5 and 6 sit in components no
  // replica runs, 6 with a zero-length release window.
  const config::ComponentCatalog catalog = config::standard_catalog();
  auto population = recovery_population(7);
  for (std::size_t r = 0; r < population.size(); ++r) {
    population[r].power = 0.3 + 0.7 * static_cast<double>(r % 4);
  }
  const auto of = [&](std::size_t r, config::ComponentKind kind) {
    return *population[r].configuration.component(kind);
  };
  std::optional<config::ComponentId> unused;
  for (const config::ComponentKind kind : config::all_component_kinds()) {
    for (const config::ComponentId id : catalog.of_kind(kind)) {
      const bool used = std::any_of(
          population.begin(), population.end(), [id](const auto& replica) {
            const auto comps = replica.configuration.components();
            return std::find(comps.begin(), comps.end(), id) != comps.end();
          });
      if (!used && !unused) unused = id;
    }
  }
  ASSERT_TRUE(unused.has_value());
  faults::VulnerabilityCatalog vulns;
  const auto add = [&vulns](config::ComponentId component, double from,
                            double to) {
    faults::Vulnerability v;
    v.component = component;
    v.discovered_at = from;
    v.patched_at = to;
    vulns.add(v);
  };
  add(of(0, config::ComponentKind::kOperatingSystem), 10.0, 20.0);
  add(of(1, config::ComponentKind::kCryptoLibrary), 15.0, 35.0);
  add(of(1, config::ComponentKind::kConsensusClient), 15.0, 15.0);
  add(of(3, config::ComponentKind::kDatabase), 0.0, 50.0);
  add(of(6, config::ComponentKind::kWallet), 60.0, 60.0);
  add(*unused, 30.0, 50.0);
  add(config::ComponentId{9999}, 70.0, 70.0);
  add(of(2, config::ComponentKind::kNetworkStack), 99.0, 100.0);

  for (const double lag : {0.001, 3.0, 1e9}) {
    faults::PatchLagModel patching;
    patching.mean_deploy_lag_days = lag;
    const std::string label = "lag=" + std::to_string(lag);
    expect_sweep_matches_rescan(population, vulns, 100.0, 101, patching,
                                std::nullopt, label);
    expect_sweep_matches_rescan(
        population, vulns, 100.0, 101, patching,
        faults::RecoverySchedule{.period_days = 7.0}, label + " staggered");
    expect_sweep_matches_rescan(
        population, vulns, 100.0, 101, patching,
        faults::RecoverySchedule{.period_days = 5.0, .staggered = false},
        label + " unstaggered");
  }
}

TEST(Exposure, SweepMatchesRescanOnSynthesizedYears) {
  // The vulnerability_window and proactive_recovery shape: a sampled fleet,
  // a synthesized CVE year and daily samples, at several seeds.
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 2.0,
                                      .attestable_fraction = 0.5});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    support::Rng rng(seed);
    std::vector<diversity::ReplicaRecord> population;
    for (const auto& cfg : sampler.sample_population(rng, 60)) {
      population.push_back(
          diversity::ReplicaRecord{cfg, rng.uniform(0.5, 2.0), true});
    }
    faults::SynthesisOptions synth;
    synth.mean_vulns_per_component = 1.5;
    synth.mean_patch_latency_days = 14.0;
    synth.seed = seed;
    const auto vulns = faults::synthesize_catalog(catalog, synth);
    faults::PatchLagModel patching;
    patching.mean_deploy_lag_days = 7.0 * static_cast<double>(seed);
    patching.seed = seed + 100;
    const std::string label = "seed=" + std::to_string(seed);
    expect_sweep_matches_rescan(population, vulns, 365.0, 366, patching,
                                std::nullopt, label);
    expect_sweep_matches_rescan(population, vulns, 365.0, 366, patching,
                                faults::RecoverySchedule{.period_days = 30.0},
                                label + " recovery");
  }
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
