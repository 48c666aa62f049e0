// The campaign engine: the command line's rejections of bad axes and
// values, target fleets, fault planning, outcome classification on
// known-good and known-violated runs, cell seed-determinism and the
// paper's safety-threshold cross-check. The distributed shard pipeline's
// byte-identity for campaign cells, and `--report` over those shards,
// are pinned in test_task.cpp.
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/fault.h"
#include "campaign/outcome.h"
#include "campaign/report.h"
#include "campaign/target.h"
#include "config/catalog.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "runtime/task.h"

namespace findep {
namespace {

using campaign::FaultKind;
using campaign::FaultPlan;

// --- target fleets ----------------------------------------------------------

TEST(CampaignTarget, RegisteredFamiliesBuildDeterministicFleets) {
  for (const campaign::TargetFamily& family : campaign::target_families()) {
    support::Rng rng_a(7);
    support::Rng rng_b(7);
    const auto fleet_a = family.build(7, rng_a);
    const auto fleet_b = family.build(7, rng_b);
    ASSERT_EQ(fleet_a.size(), 7u) << family.name;
    ASSERT_EQ(fleet_b.size(), 7u) << family.name;
    for (std::size_t i = 0; i < fleet_a.size(); ++i) {
      EXPECT_EQ(fleet_a[i].configuration.digest(),
                fleet_b[i].configuration.digest())
          << family.name << " replica " << i;
    }
  }
}

TEST(CampaignTarget, UniformIsMonocultureLazarusSpreads) {
  support::Rng rng(11);
  const auto mono = campaign::build_target_fleet("uniform", 5, rng);
  for (const auto& record : mono) {
    EXPECT_EQ(record.configuration.digest(), mono[0].configuration.digest());
  }
  support::Rng rng2(11);
  const auto laz = campaign::build_target_fleet("lazarus", 5, rng2);
  for (std::size_t i = 1; i < laz.size(); ++i) {
    EXPECT_FALSE(
        laz[i].configuration.shares_component_with(laz[i - 1].configuration))
        << "adjacent lazarus replicas " << i - 1 << "," << i;
  }
}

TEST(CampaignTarget, UnknownTargetThrowsListingRegistered) {
  support::Rng rng(1);
  try {
    (void)campaign::build_target_fleet("beos", 4, rng);
    FAIL() << "unknown target accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lazarus"), std::string::npos);
  }
}

// --- fault planning ---------------------------------------------------------

TEST(CampaignFault, KindNamesRoundTrip) {
  for (const auto& [name, kind] : campaign::fault_kinds()) {
    EXPECT_EQ(campaign::parse_fault_kind(name), kind);
    EXPECT_EQ(campaign::to_string(kind), name);
  }
  EXPECT_THROW((void)campaign::parse_fault_kind("meteor"),
               std::invalid_argument);
}

TEST(CampaignFault, PlanIsDeterministicInFleetAndRng) {
  support::Rng fleet_rng(3);
  const auto fleet = campaign::build_target_fleet("diverse", 7, fleet_rng);
  const config::ComponentCatalog catalog = config::standard_catalog();
  support::Rng rng_a(21);
  support::Rng rng_b(21);
  const FaultPlan a =
      campaign::plan_fault(FaultKind::kCrash, 0.5, fleet, catalog, rng_a);
  const FaultPlan b =
      campaign::plan_fault(FaultKind::kCrash, 0.5, fleet, catalog, rng_b);
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.exposed_fraction, b.exposed_fraction);
}

TEST(CampaignFault, ByzantineKindsExploitTheWorstComponent) {
  support::Rng fleet_rng(5);
  const auto fleet = campaign::build_target_fleet("skewed", 7, fleet_rng);
  const config::ComponentCatalog catalog = config::standard_catalog();
  const auto report = diversity::DiversityAnalyzer::analyze(fleet);
  ASSERT_TRUE(report.worst_overall.has_value());
  support::Rng rng(9);
  const FaultPlan plan =
      campaign::plan_fault(FaultKind::kCollude, 1.0, fleet, catalog, rng);
  // The adversary's blast radius is exactly the analyzer's worst
  // component share, and at rate 1 every exposed replica succumbs.
  EXPECT_DOUBLE_EQ(plan.exposed_fraction,
                   report.worst_overall->power_fraction);
  EXPECT_DOUBLE_EQ(plan.victim_fraction, plan.exposed_fraction);
  EXPECT_TRUE(campaign::is_byzantine(plan.kind));

  const auto behaviors = campaign::planned_behaviors(plan, 7);
  std::size_t colluders = 0;
  for (const replication::Behavior b : behaviors) {
    colluders += b == replication::Behavior::kCollude ? 1 : 0;
  }
  EXPECT_EQ(colluders, plan.victims.size());
}

// --- outcome classification -------------------------------------------------

replication::ClusterOptions fast_options(std::uint64_t seed) {
  replication::ClusterOptions options;
  options.seed = seed;
  options.network.min_latency = 0.005;
  options.network.mean_extra_latency = 0.01;
  return options;
}

TEST(CampaignOutcome, KnownGoodRunClassifiesRecovered) {
  replication::Cluster cluster(4, fast_options(17));
  for (int i = 0; i < 5; ++i) (void)cluster.submit();
  cluster.run_for(10.0);
  FaultPlan plan;  // empty crash plan: nothing was injected
  plan.kind = FaultKind::kCrash;
  const campaign::Outcome outcome =
      campaign::classify_outcome(cluster, plan, 5);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.safety_violated);
  EXPECT_FALSE(outcome.liveness_stalled);
  EXPECT_EQ(outcome.committed, 5u);
  EXPECT_GE(outcome.recovery_time_s, 0.0);
}

TEST(CampaignOutcome, KnownViolationClassifiesSafetyViolated) {
  // The adversarial suite's above-threshold coalition (weights 2+2 of
  // W = 7 > W/3), reclassified through the campaign taxonomy.
  std::vector<double> weights = {2.0, 2.0, 1.0, 1.0, 1.0};
  using replication::Behavior;
  std::vector<Behavior> behaviors = {Behavior::kCollude, Behavior::kCollude,
                                     Behavior::kHonest, Behavior::kHonest,
                                     Behavior::kHonest};
  replication::Cluster cluster(weights, fast_options(35), behaviors);
  (void)cluster.submit();
  cluster.run_for(30.0);
  ASSERT_FALSE(cluster.logs_consistent());

  FaultPlan plan;
  plan.kind = FaultKind::kCollude;
  plan.victims = {0, 1};
  const campaign::Outcome outcome =
      campaign::classify_outcome(cluster, plan, 1);
  EXPECT_TRUE(outcome.safety_violated);
  EXPECT_FALSE(outcome.recovered);
  EXPECT_TRUE(outcome.detected);  // honest replicas view-changed
}

// --- cells ------------------------------------------------------------------

/// One campaign cell at n = 7, built through the registered factory.
runtime::Scenario cell(const std::string& target, const std::string& fault,
                       double rate, std::size_t n = 7) {
  runtime::ParamSet point;
  point.set("target", target);
  point.set("fault", fault);
  point.set("rate", rate);
  point.set("n", n);
  return runtime::ScenarioRegistry::global().find("campaign")->factory(point);
}

TEST(CampaignCell, RunsAreSeedDeterministic) {
  const runtime::Scenario partition = cell("diverse", "partition", 0.5);
  const runtime::RunContext ctx{.seed = 42, .run_index = 0};
  const runtime::MetricRecord a = partition.run(ctx);
  const runtime::MetricRecord b = partition.run(ctx);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.has("fault_detected"));
  EXPECT_TRUE(a.has("safety_violated"));
}

TEST(CampaignCell, RejectsInvalidParameters) {
  EXPECT_THROW(cell("no_such_target", "crash", 1.0), std::invalid_argument);
  EXPECT_THROW(cell("diverse", "meteor", 1.0), std::invalid_argument);
  // The rate is a probability in (0, 1], and a cluster must tolerate one
  // fault (n >= 4).
  EXPECT_THROW(cell("diverse", "crash", 0.0), std::invalid_argument);
  EXPECT_THROW(cell("diverse", "crash", 1.5), std::invalid_argument);
  EXPECT_THROW(cell("diverse", "crash", 1.0, 3), std::invalid_argument);
}

/// Runs findep-bench's sweep entry point on `args` and returns its exit
/// code and stderr.
std::pair<int, std::string> run_bench(std::vector<const char*> args) {
  args.insert(args.begin(), "findep-bench");
  std::ostringstream out;
  std::ostringstream err;
  std::streambuf* const cout_buf = std::cout.rdbuf(out.rdbuf());
  std::streambuf* const cerr_buf = std::cerr.rdbuf(err.rdbuf());
  const int code =
      runtime::run_families_main(static_cast<int>(args.size()), args.data());
  std::cout.rdbuf(cout_buf);
  std::cerr.rdbuf(cerr_buf);
  EXPECT_EQ(out.str(), "") << "a cell ran before the usage error";
  return {code, err.str()};
}

TEST(CampaignFlags, RejectBadAxesAndValuesBeforeAnyCellRuns) {
  // Each case exits 2 with a message naming the axis or the value.
  const std::pair<const char*, const char*> cases[] = {
      {"bogus=1", "bogus"},
      {"fault=crash,crash", "lists crash twice"},
      {"rate=0", "rate 0 outside (0, 1]"},
      {"n=3", "n must be at least 4"},
      {"target=windows_me", "windows_me"},
      {"fault=gamma_ray", "gamma_ray"},
  };
  for (const auto& [set, named] : cases) {
    const auto [code, err] =
        run_bench({"--family", "campaign", "--set", set, "--threads", "1"});
    EXPECT_EQ(code, 2) << set;
    EXPECT_NE(err.find(named), std::string::npos) << set << ": " << err;
  }
}

// The paper's safety condition, reproduced as campaign cells: a colluding
// coalition whose shared-component power exceeds W/3 can violate safety;
// the Lazarus-style fleet caps every component at 2/7 < 1/3, so the same
// adversary never can (its damage is bounded to liveness).
TEST(CampaignCell, SafetyThresholdCrossCheck) {
  const runtime::Scenario diverse_collude = cell("diverse", "collude", 1.0);
  const runtime::Scenario lazarus_collude = cell("lazarus", "collude", 1.0);
  const runtime::Scenario diverse_crash = cell("diverse", "crash", 1.0);

  std::size_t violations = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const runtime::RunContext ctx{.seed = runtime::derive_seed(1, i),
                                  .run_index = i};
    const runtime::MetricRecord dc = diverse_collude.run(ctx);
    if (dc.get("safety_violated") > 0.0) {
      ++violations;
      // A violation requires an above-threshold coalition.
      EXPECT_GT(dc.get("victim_fraction"), 1.0 / 3.0);
    }
    const runtime::MetricRecord lz = lazarus_collude.run(ctx);
    EXPECT_LT(lz.get("victim_fraction"), 1.0 / 3.0);
    EXPECT_EQ(lz.get("safety_violated"), 0.0)
        << "below-threshold coalition violated safety at run " << i;
    const runtime::MetricRecord cr = diverse_crash.run(ctx);
    EXPECT_EQ(cr.get("safety_violated"), 0.0);
    EXPECT_EQ(cr.get("recovered"), 1.0)
        << "sub-third crash not recovered at run " << i;
  }
  EXPECT_GE(violations, 4u)
      << "above-threshold collusion should usually violate safety";
}

// --- the reporter -----------------------------------------------------------

TEST(CampaignReport, AggregatesRatesByGroup) {
  const runtime::Scenario cells[] = {
      cell("diverse", "collude", 1.0),
      cell("diverse", "crash", 1.0),
      cell("lazarus", "crash", 1.0),
  };
  std::vector<runtime::TaskResult> results;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 2; ++i) {
      runtime::TaskResult result;
      result.family = "campaign";
      result.scenario = cells[c].name();
      result.sequence = c;
      result.record.seed = runtime::derive_seed(1, i);
      result.record.run_index = i;
      result.record.metrics = cells[c].run(
          runtime::RunContext{.seed = result.record.seed, .run_index = i});
      results.push_back(std::move(result));
    }
  }
  // An errored record must be counted and skipped, not aggregated.
  runtime::TaskResult errored;
  errored.family = "campaign";
  errored.scenario = "campaign/target=diverse fault=crash rate=1 n=7";
  errored.record.error = "boom";
  results.push_back(errored);
  // Foreign families are ignored.
  runtime::TaskResult foreign;
  foreign.family = "bft_scaling";
  foreign.scenario = "bft_scaling/n=7";
  foreign.record.metrics.set("latency", 1.0);
  results.push_back(foreign);

  const campaign::CampaignReport report =
      campaign::build_campaign_report(results);
  EXPECT_EQ(report.cells, 6u);
  EXPECT_EQ(report.errored_cells, 1u);

  ASSERT_EQ(report.by_target.size(), 2u);
  EXPECT_EQ(report.by_target[0].key, "diverse");
  EXPECT_EQ(report.by_target[0].cells, 4u);
  EXPECT_EQ(report.by_target[1].key, "lazarus");
  EXPECT_EQ(report.by_target[1].cells, 2u);

  ASSERT_EQ(report.by_fault.size(), 2u);
  EXPECT_EQ(report.by_fault[0].key, "collude");
  EXPECT_EQ(report.by_fault[1].key, "crash");
  EXPECT_EQ(report.by_fault[1].cells, 4u);
  // Sub-third crashes recover; rates are well-formed probabilities.
  EXPECT_EQ(report.by_fault[1].recovered_rate, 1.0);
  for (const auto& group : report.by_component_kind) {
    EXPECT_GE(group.detected_rate, 0.0);
    EXPECT_LE(group.detected_rate, 1.0);
    EXPECT_NE(group.key, "?");
  }

  const std::string rendered = report.to_string();
  EXPECT_NE(rendered.find("by faulted component kind"), std::string::npos);
  EXPECT_NE(rendered.find("diverse"), std::string::npos);
  EXPECT_NE(rendered.find("6 cells"), std::string::npos);
}

}  // namespace
}  // namespace findep
