// Vulnerabilities, fault injection, adversaries, exposure windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "config/sampler.h"
#include "faults/adversary.h"
#include "faults/injector.h"
#include "faults/windows.h"
#include "support/assert.h"

namespace findep::faults {
namespace {

std::vector<diversity::ReplicaRecord> distinct_population(std::size_t n) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.distinct_configurations(n)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  return population;
}

TEST(Vulnerability, WindowSemantics) {
  Vulnerability v;
  v.component = config::ComponentId{0};
  v.discovered_at = 10.0;
  v.patched_at = 20.0;
  EXPECT_FALSE(v.window_open(9.99));
  EXPECT_TRUE(v.window_open(10.0));
  EXPECT_TRUE(v.window_open(19.99));
  EXPECT_FALSE(v.window_open(20.0));
}

TEST(Catalog, AddValidatesAndIndexes) {
  VulnerabilityCatalog catalog;
  Vulnerability v;
  v.component = config::ComponentId{3};
  v.discovered_at = 1.0;
  v.patched_at = 5.0;
  const VulnId id = catalog.add(v);
  EXPECT_EQ(catalog.get(id).component.value, 3u);
  EXPECT_EQ(catalog.in_component(config::ComponentId{3}).size(), 1u);
  EXPECT_TRUE(catalog.in_component(config::ComponentId{4}).empty());
  EXPECT_EQ(catalog.open_at(2.0).size(), 1u);
  EXPECT_TRUE(catalog.open_at(6.0).empty());

  Vulnerability bad = v;
  bad.patched_at = 0.5;  // before discovery
  EXPECT_THROW(catalog.add(bad), support::ContractViolation);
}

TEST(Catalog, SynthesisRespectsRates) {
  const config::ComponentCatalog components = config::standard_catalog();
  SynthesisOptions opt;
  opt.mean_vulns_per_component = 2.0;
  opt.horizon_days = 100.0;
  const VulnerabilityCatalog catalog = synthesize_catalog(components, opt);
  // Poisson(2) per component: expect roughly 2 * |components| total.
  const double expected =
      2.0 * static_cast<double>(components.size());
  EXPECT_NEAR(static_cast<double>(catalog.size()), expected,
              expected * 0.5);
  for (const Vulnerability& v : catalog.all()) {
    EXPECT_GE(v.discovered_at, 0.0);
    EXPECT_LE(v.discovered_at, opt.horizon_days);
    EXPECT_GT(v.patched_at, v.discovered_at);
    EXPECT_FALSE(v.label.empty());
  }
}

TEST(Catalog, SynthesisDeterministicPerSeed) {
  const config::ComponentCatalog components = config::standard_catalog();
  SynthesisOptions opt;
  const auto a = synthesize_catalog(components, opt);
  const auto b = synthesize_catalog(components, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.all()[i].discovered_at, b.all()[i].discovered_at);
  }
}

TEST(Injector, SingleComponentFaultHitsSharers) {
  // 3 replicas, two sharing an OS.
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  auto configs = sampler.distinct_configurations(3);
  const auto shared_os =
      *configs[0].component(config::ComponentKind::kOperatingSystem);
  configs[1].set(catalog, shared_os);

  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : configs) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  FaultInjector injector(population);
  const CompromiseResult r =
      injector.inject_components(std::vector{shared_os});
  EXPECT_EQ(r.compromised.size(), 2u);
  EXPECT_NEAR(r.compromised_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(r.breaks(diversity::kBftThreshold));
}

TEST(Injector, UnknownComponentCompromisesNobody) {
  FaultInjector injector(distinct_population(4));
  const CompromiseResult r = injector.inject_components(
      std::vector{config::ComponentId{9999}});
  EXPECT_TRUE(r.compromised.empty());
  EXPECT_DOUBLE_EQ(r.compromised_fraction, 0.0);
}

TEST(Injector, WorstCaseGreedyIsMonotone) {
  support::Rng rng(5);
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 1.0,
                                      .attestable_fraction = 0.5});
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.sample_population(rng, 40)) {
    population.push_back(
        diversity::ReplicaRecord{cfg, rng.uniform(0.5, 2.0), true});
  }
  FaultInjector injector(population);
  double prev = 0.0;
  for (std::size_t k = 0; k <= 6; ++k) {
    const CompromiseResult r = injector.worst_case_components(k);
    EXPECT_GE(r.compromised_fraction, prev - 1e-12) << k;
    EXPECT_LE(r.faults_used, k);
    // The recorded picks, replayed, compromise exactly the same replicas.
    ASSERT_EQ(r.components.size(), r.faults_used) << k;
    EXPECT_EQ(injector.inject_components(r.components).compromised,
              r.compromised)
        << k;
    prev = r.compromised_fraction;
  }
}

TEST(Injector, WorstCaseBeatsAverageRandom) {
  support::Rng rng(6);
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(catalog, config::SamplerOptions{});
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.sample_population(rng, 30)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  FaultInjector injector(population);
  const double greedy =
      injector.worst_case_components(2).compromised_fraction;
  // Average random 2-component compromise.
  double sum = 0.0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const auto picks =
        rng.sample_indices(injector.present_components().size(), 2);
    const std::vector<config::ComponentId> components = {
        injector.present_components()[picks[0]],
        injector.present_components()[picks[1]]};
    sum += injector.inject_components(components).compromised_fraction;
  }
  EXPECT_GE(greedy, sum / kTrials);
}

TEST(Injector, ExploitabilityScalesCompromise) {
  // 8 replicas so every replica has a distinct OS (variety 8): exactly one
  // 50% exploit roll per replica.
  auto population = distinct_population(8);
  VulnerabilityCatalog catalog;
  // One vulnerability per replica's OS with 50% exploitability.
  std::vector<VulnId> vulns;
  for (const auto& rec : population) {
    Vulnerability v;
    v.component =
        *rec.configuration.component(config::ComponentKind::kOperatingSystem);
    v.exploitability = 0.5;
    v.discovered_at = 0.0;
    v.patched_at = 100.0;
    vulns.push_back(catalog.add(v));
  }
  FaultInjector injector(population);
  support::Rng rng(7);
  double total = 0.0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    total += injector.inject_vulnerabilities(catalog, vulns, 1.0, rng)
                 .compromised_fraction;
  }
  EXPECT_NEAR(total / kTrials, 0.5, 0.05);
}

TEST(Injector, ClosedWindowHasNoEffect) {
  auto population = distinct_population(4);
  VulnerabilityCatalog catalog;
  Vulnerability v;
  v.component = *population[0].configuration.component(
      config::ComponentKind::kOperatingSystem);
  v.discovered_at = 10.0;
  v.patched_at = 20.0;
  const VulnId id = catalog.add(v);
  FaultInjector injector(population);
  support::Rng rng(8);
  EXPECT_DOUBLE_EQ(injector
                       .inject_vulnerabilities(catalog, std::vector{id},
                                               30.0, rng)
                       .compromised_fraction,
                   0.0);
  EXPECT_GT(injector
                .inject_vulnerabilities(catalog, std::vector{id}, 15.0, rng)
                .compromised_fraction,
            0.0);
}

TEST(Injector, BreakProbabilityMonotoneInBudget) {
  support::Rng rng(9);
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 1.2,
                                      .attestable_fraction = 0.5});
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.sample_population(rng, 30)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  FaultInjector injector(population);
  double prev = 0.0;
  for (std::size_t k : {1u, 3u, 6u, 12u}) {
    support::Rng trial_rng(100 + k);
    const double p = injector.break_probability(
        k, diversity::kBftThreshold, 300, trial_rng);
    EXPECT_GE(p, prev - 0.05) << k;  // small MC slack
    prev = p;
  }
}

/// The compromised fraction of every trial of break_probability as it was
/// before bitmasks: Floyd's picks into a fresh vector, a vector<bool> hit
/// set filled from each pick's exposed replicas, and a scan that adds the
/// power of the hit replicas in replica order.
std::vector<double> trial_fractions_by_scan(const FaultInjector& injector,
                                            std::size_t k,
                                            std::size_t trials,
                                            support::Rng& rng) {
  const auto& population = injector.population();
  const auto& components = injector.present_components();
  std::vector<std::vector<std::size_t>> exposure(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    for (std::size_t r = 0; r < population.size(); ++r) {
      const auto comps = population[r].configuration.components();
      if (std::find(comps.begin(), comps.end(), components[c]) !=
          comps.end()) {
        exposure[c].push_back(r);
      }
    }
  }
  const std::size_t pool = components.size();
  const std::size_t draw = std::min(k, pool);
  std::vector<double> fractions;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::vector<std::size_t> picks;
    for (std::size_t j = pool - draw; j < pool; ++j) {
      const std::size_t t = rng.below(j + 1);
      const bool already =
          std::find(picks.begin(), picks.end(), t) != picks.end();
      picks.push_back(already ? j : t);
    }
    std::vector<bool> hit(population.size(), false);
    for (const std::size_t c : picks) {
      for (const std::size_t r : exposure[c]) hit[r] = true;
    }
    double power = 0.0;
    for (std::size_t r = 0; r < population.size(); ++r) {
      if (hit[r]) power += population[r].power;
    }
    fractions.push_back(power / injector.total_power());
  }
  return fractions;
}

TEST(Injector, BreakProbabilityMatchesPerReplicaScan) {
  // Populations on both sides of the 64-replica mask words, with unequal
  // power. Besides 0, 1/3 and 1/2, the thresholds are fractions the scan
  // itself produced: a kernel that added the same powers in another order
  // lands an ulp off on some trial and flips its count there.
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 1.0,
                                      .attestable_fraction = 0.5});
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    support::Rng rng(700 + n);
    std::vector<diversity::ReplicaRecord> population;
    for (const auto& cfg : sampler.sample_population(rng, n)) {
      population.push_back(
          diversity::ReplicaRecord{cfg, rng.uniform(0.1, 3.0), true});
    }
    const FaultInjector injector(population);
    for (const std::size_t k : {1u, 2u, 4u, 9u, 1000u}) {
      constexpr std::size_t kTrials = 200;
      support::Rng by_scan(k * 1000 + n);
      const std::vector<double> fractions =
          trial_fractions_by_scan(injector, k, kTrials, by_scan);
      std::vector<double> thresholds = {0.0, diversity::kBftThreshold,
                                        diversity::kNakamotoThreshold};
      thresholds.insert(thresholds.end(), fractions.begin(),
                        fractions.begin() + 40);
      for (const double threshold : thresholds) {
        const auto breaks = std::count_if(
            fractions.begin(), fractions.end(),
            [threshold](double f) { return f > threshold; });
        support::Rng by_masks(k * 1000 + n);
        ASSERT_EQ(
            injector.break_probability(k, threshold, kTrials, by_masks),
            static_cast<double>(breaks) / static_cast<double>(kTrials))
            << "n=" << n << " k=" << k << " threshold=" << threshold;
        support::Rng after_scan = by_scan;
        ASSERT_EQ(by_masks(), after_scan()) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Adversary, OperatorTakesRichestFirst) {
  OperatedPopulation pop;
  pop.replicas = distinct_population(4);
  pop.replicas[2].power = 10.0;
  pop.operator_of = {0, 1, 2, 3};
  const CompromiseResult r = OperatorAdversary{1}.attack(pop);
  EXPECT_EQ(r.compromised.size(), 1u);
  EXPECT_EQ(r.compromised[0], 2u);
  EXPECT_NEAR(r.compromised_fraction, 10.0 / 13.0, 1e-12);
}

TEST(Adversary, OperatorControlsAllItsReplicas) {
  OperatedPopulation pop;
  pop.replicas = distinct_population(6);
  pop.operator_of = {0, 0, 0, 1, 1, 2};  // operator 0 runs 3 replicas
  const CompromiseResult r = OperatorAdversary{1}.attack(pop);
  EXPECT_EQ(r.compromised.size(), 3u);
  EXPECT_NEAR(r.compromised_fraction, 0.5, 1e-12);
}

TEST(Adversary, ZeroBudgetCompromisesNothing) {
  OperatedPopulation pop;
  pop.replicas = distinct_population(4);
  pop.operator_of = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(OperatorAdversary{0}.attack(pop).compromised_fraction,
                   0.0);
}

TEST(Adversary, HybridAtLeastAsStrongAsParts) {
  support::Rng rng(10);
  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = 1.0,
                                      .attestable_fraction = 0.5});
  OperatedPopulation pop;
  for (const auto& cfg : sampler.sample_population(rng, 24)) {
    pop.replicas.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
    pop.operator_of.push_back(
        static_cast<OperatorId>(rng.below(6)));
  }
  FaultInjector injector(pop.replicas);
  for (std::size_t budget : {1u, 2u, 3u}) {
    const double hybrid =
        HybridAdversary{budget}.attack(injector, pop).compromised_fraction;
    const double vuln_only =
        injector.worst_case_components(budget).compromised_fraction;
    const double op_only =
        OperatorAdversary{budget}.attack(pop).compromised_fraction;
    EXPECT_GE(hybrid, vuln_only - 1e-12) << budget;
    EXPECT_GE(hybrid, op_only - 1e-12) << budget;
  }
}

TEST(Windows, ExposureTimelineTracksWindows) {
  auto population = distinct_population(4);
  VulnerabilityCatalog catalog;
  Vulnerability v;
  v.component = *population[0].configuration.component(
      config::ComponentKind::kOperatingSystem);
  v.discovered_at = 10.0;
  v.patched_at = 20.0;
  catalog.add(v);

  PatchLagModel patching;
  patching.mean_deploy_lag_days = 1.0;
  const ExposureTimeline timeline =
      compute_exposure(population, catalog, 60.0, 121, patching);
  ASSERT_EQ(timeline.points.size(), 121u);
  // Before discovery: nothing exposed.
  EXPECT_DOUBLE_EQ(timeline.points[10].exposed_fraction, 0.0);  // t = 5
  // Mid-window: the one exposed replica (1/4 power).
  EXPECT_NEAR(timeline.peak_exposed_fraction, 0.25, 1e-12);
  EXPECT_GE(timeline.peak_time, 10.0);
  EXPECT_EQ(timeline.peak_open_vulnerabilities, 1u);
  // Long after patch + lag: closed again.
  EXPECT_DOUBLE_EQ(timeline.points.back().exposed_fraction, 0.0);
}

TEST(Windows, MonoculturePeaksAtFullExposure) {
  const config::ComponentCatalog catalog = config::monoculture_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.attestable_fraction = 1.0});
  support::Rng rng(11);
  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg : sampler.sample_population(rng, 8)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  VulnerabilityCatalog vulns;
  Vulnerability v;
  v.component = *population[0].configuration.component(
      config::ComponentKind::kOperatingSystem);
  v.discovered_at = 5.0;
  v.patched_at = 15.0;
  vulns.add(v);
  const ExposureTimeline timeline =
      compute_exposure(population, vulns, 30.0, 61, PatchLagModel{});
  EXPECT_DOUBLE_EQ(timeline.peak_exposed_fraction, 1.0);
  EXPECT_GT(timeline.time_above_majority_threshold, 0.2);
}

}  // namespace
}  // namespace findep::faults
