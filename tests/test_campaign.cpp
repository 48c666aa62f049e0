// The campaign engine: spec parsing, rejection and lowering to
// findep-bench flags, target fleets, fault planning, outcome
// classification on known-good and known-violated runs, cell
// seed-determinism, the paper's safety-threshold cross-check, and the
// distributed shard pipeline's byte-identity for campaign cells.
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/fault.h"
#include "campaign/outcome.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "campaign/target.h"
#include "config/catalog.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "runtime/suite.h"
#include "runtime/task.h"

namespace findep {
namespace {

using campaign::CampaignSpec;
using campaign::FaultKind;
using campaign::FaultPlan;

// --- spec parsing -----------------------------------------------------------

TEST(CampaignSpec, ParsesAxesCommentsAndSeeds) {
  const CampaignSpec spec = campaign::parse_campaign_spec(
      "# nightly resilience campaign\n"
      "target = uniform, diverse\n"
      "\n"
      "fault  = crash, collude, corrupt   # three kinds\n"
      "rate   = 1.0, 0.5\n"
      "seeds  = 3\n");
  ASSERT_EQ(spec.overrides.size(), 3u);
  EXPECT_EQ(spec.overrides[0].first, "target");
  EXPECT_EQ(spec.overrides[0].second,
            (std::vector<std::string>{"uniform", "diverse"}));
  EXPECT_EQ(spec.overrides[1].first, "fault");
  EXPECT_EQ(spec.overrides[1].second,
            (std::vector<std::string>{"crash", "collude", "corrupt"}));
  EXPECT_EQ(spec.overrides[2].first, "rate");
  ASSERT_TRUE(spec.seeds.has_value());
  EXPECT_EQ(*spec.seeds, 3u);

  // 2 targets x 3 faults x 2 rates x default n axis (one value).
  EXPECT_EQ(campaign::campaign_grid(spec).size(), 12u);
}

TEST(CampaignSpec, AppliedGridKeepsDefaultAxes) {
  const CampaignSpec spec =
      campaign::parse_campaign_spec("fault = crash\nrate = 0.5\n");
  const runtime::ParamGrid grid = campaign::campaign_grid(spec);
  // All four default targets survive; fault and rate collapse to one.
  EXPECT_EQ(grid.size(), 4u);
  const std::vector<runtime::ParamSet> cells = grid.expand();
  for (const runtime::ParamSet& cell : cells) {
    EXPECT_EQ(cell.get_string("fault"), "crash");
    EXPECT_EQ(cell.get_double("rate"), 0.5);
    EXPECT_EQ(cell.get_size("n"), 7u);
  }
}

TEST(CampaignSpec, RejectsMalformedAndUnknown) {
  // Unknown axis, with line context.
  try {
    (void)campaign::parse_campaign_spec("target = uniform\nbogus = 1\n");
    FAIL() << "unknown axis accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
  // No '='.
  EXPECT_THROW((void)campaign::parse_campaign_spec("target uniform\n"),
               std::invalid_argument);
  // Unknown target / fault names die at parse time.
  EXPECT_THROW((void)campaign::parse_campaign_spec("target = windows_me\n"),
               std::invalid_argument);
  EXPECT_THROW((void)campaign::parse_campaign_spec("fault = gamma_ray\n"),
               std::invalid_argument);
  // Rate domain and n floor.
  EXPECT_THROW((void)campaign::parse_campaign_spec("rate = 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)campaign::parse_campaign_spec("rate = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)campaign::parse_campaign_spec("n = 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)campaign::parse_campaign_spec("seeds = 0\n"),
               std::invalid_argument);
}

TEST(CampaignSpec, RejectsDuplicatesAndOverlaps) {
  // Duplicate axis line.
  EXPECT_THROW(
      (void)campaign::parse_campaign_spec("fault = crash\nfault = censor\n"),
      std::invalid_argument);
  // Duplicate value within an axis = two identical cells (overlap).
  try {
    (void)campaign::parse_campaign_spec("fault = crash, censor, crash\n");
    FAIL() << "overlapping cells accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("twice"), std::string::npos);
  }
  EXPECT_THROW((void)campaign::parse_campaign_spec("seeds = 2\nseeds = 3\n"),
               std::invalid_argument);
}

TEST(CampaignSpec, LowersToFindepBenchFlags) {
  const std::vector<std::string> args =
      campaign::spec_arguments(campaign::parse_campaign_spec(
          "target = uniform, lazarus\n"
          "fault  = crash, collude\n"
          "rate   = 1.0, 0.5\n"
          "seeds  = 2\n"));
  EXPECT_EQ(args, (std::vector<std::string>{
                      "--family", "campaign", "--set",
                      "target=uniform,lazarus", "--set", "fault=crash,collude",
                      "--set", "rate=1.0,0.5", "--seeds", "2"}));

  // A spec without a seeds line leaves the seed count to the CLI.
  EXPECT_EQ(
      campaign::spec_arguments(campaign::parse_campaign_spec("n = 7\n")),
      (std::vector<std::string>{"--family", "campaign", "--set", "n=7"}));

  // findep-bench puts the spec's flags before the user's, so a user
  // --seeds wins over the spec's.
  std::vector<const char*> argv = {"findep-bench"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back("--seeds");
  argv.push_back("1");
  runtime::SuiteOptions options;
  std::ostringstream err;
  ASSERT_TRUE(runtime::parse_suite_options(static_cast<int>(argv.size()),
                                           argv.data(), options, err))
      << err.str();
  EXPECT_EQ(options.sweep.num_seeds, 1u);
  EXPECT_EQ(options.families, (std::vector<std::string>{"campaign"}));
  ASSERT_EQ(options.sets.size(), 3u);
  EXPECT_EQ(options.sets[2].axis, "rate");
  EXPECT_EQ(options.sets[2].values,
            (std::vector<std::string>{"1.0", "0.5"}));
}

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
                       double rate) {
  runtime::ParamSet point;
  point.set("target", target);
  point.set("fault", fault);
  point.set("rate", rate);
  point.set("n", 7);
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

// --- distributed byte-identity ---------------------------------------------

runtime::FamilySelection campaign_selection() {
  const runtime::ScenarioFamily* family =
      runtime::ScenarioRegistry::global().find("campaign");
  EXPECT_NE(family, nullptr);
  std::vector<runtime::ParamGrid> grids = family->grids;
  for (runtime::ParamGrid& grid : grids) {
    grid.override_axis("target", {"uniform", "diverse"});
    grid.override_axis("fault", {"crash", "corrupt", "collude"});
    grid.override_axis("rate", {"1"});
  }
  return {{family, std::move(grids)}};
}

std::string run_in_process(const runtime::FamilySelection& selection,
                           const runtime::SuiteOptions& options) {
  runtime::ScenarioSuite suite("");
  for (const auto& [family, grids] : selection) {
    for (auto& scenario : runtime::instantiate_family(*family, grids)) {
      suite.add(std::move(scenario));
    }
  }
  std::ostringstream out, err;
  EXPECT_EQ(suite.run(options, out, err), 0) << err.str();
  return out.str();
}

TEST(CampaignDistributed, TwoShardMergeIsByteIdenticalToInProcess) {
  const runtime::FamilySelection selection = campaign_selection();
  runtime::SuiteOptions options;
  options.sweep = {.base_seed = 7, .num_seeds = 2, .threads = 0};
  options.json = true;
  const std::string in_process = run_in_process(selection, options);

  // Round-robin shard the emitted tasks across two workers, then merge.
  std::ostringstream tasks;
  (void)runtime::emit_task_catalog(selection, options.sweep, "", "", tasks);
  std::vector<std::string> shard_tasks(2);
  std::istringstream task_lines(tasks.str());
  std::string line;
  std::size_t index = 0;
  while (std::getline(task_lines, line)) {
    shard_tasks[index++ % 2] += line + '\n';
  }
  EXPECT_GT(index, 2u);

  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    std::istringstream in(shard_tasks[s]);
    std::ostringstream out, err;
    EXPECT_EQ(runtime::run_worker(in, out, err, /*threads=*/0), 0)
        << err.str();
    const std::string path = ::testing::TempDir() + "findep_campaign_shard_" +
                             std::to_string(s) + ".jsonl";
    std::ofstream file(path);
    file << out.str();
    paths.push_back(path);
  }

  std::ostringstream merged, err;
  EXPECT_EQ(runtime::merge_shards(paths, false, true, merged, err), 0)
      << err.str();
  EXPECT_EQ(merged.str(), in_process);
  EXPECT_NE(in_process.find("campaign/target=diverse fault=collude"),
            std::string::npos);

  // The report runs off the same shards without disturbing them.
  std::ostringstream report_out, report_err;
  EXPECT_EQ(campaign::report_main(paths, report_out, report_err), 0)
      << report_err.str();
  EXPECT_NE(report_out.str().find("by target"), std::string::npos);
}

}  // namespace
}  // namespace findep
