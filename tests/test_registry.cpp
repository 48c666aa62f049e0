// The declarative layer: ParamValue/ParamSet/ParamGrid, the scenario
// registry, the global (scenario, seed) work queue's determinism across
// whole families, and golden CSV/JSON output for a parameterized family.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "runtime/suite.h"
#include "runtime/sweep.h"
#include "support/assert.h"

namespace findep::runtime {
namespace {

// --- ParamValue ------------------------------------------------------------

TEST(ParamValue, TypedAccessAndCoercion) {
  EXPECT_EQ(ParamValue(7).as_int(), 7);
  EXPECT_EQ(ParamValue(7).as_size(), 7u);
  EXPECT_DOUBLE_EQ(ParamValue(7).as_double(), 7.0);  // int -> double ok
  EXPECT_DOUBLE_EQ(ParamValue(0.5).as_double(), 0.5);
  EXPECT_TRUE(ParamValue(true).as_bool());
  EXPECT_EQ(ParamValue("abc").as_string(), "abc");

  EXPECT_THROW((void)ParamValue(0.5).as_int(), std::invalid_argument);
  EXPECT_THROW((void)ParamValue(-3).as_size(), std::invalid_argument);
  EXPECT_THROW((void)ParamValue("x").as_double(), std::invalid_argument);
  EXPECT_THROW((void)ParamValue(1).as_string(), std::invalid_argument);
}

TEST(ParamValue, RendersRoundTrippably) {
  EXPECT_EQ(ParamValue(42).to_string(), "42");
  EXPECT_EQ(ParamValue(0.25).to_string(), "0.25");
  EXPECT_EQ(ParamValue(60.0).to_string(), "60");  // no 6e+01
  EXPECT_EQ(ParamValue(1.0 / 3.0).to_string(), "0.3333333333333333");
  EXPECT_EQ(ParamValue(true).to_string(), "true");
  EXPECT_EQ(ParamValue("skewed").to_string(), "skewed");
}

TEST(ParamValue, ParsesWithTheAxisType) {
  EXPECT_EQ(ParamValue::parse_as("12", ParamValue(1)).as_int(), 12);
  EXPECT_DOUBLE_EQ(ParamValue::parse_as("0.5", ParamValue(1.0)).as_double(),
                   0.5);
  EXPECT_TRUE(ParamValue::parse_as("true", ParamValue(false)).as_bool());
  EXPECT_EQ(ParamValue::parse_as("xy", ParamValue("a")).as_string(), "xy");

  EXPECT_THROW((void)ParamValue::parse_as("0.5", ParamValue(1)),
               std::invalid_argument);
  EXPECT_THROW((void)ParamValue::parse_as("abc", ParamValue(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)ParamValue::parse_as("2", ParamValue(true)),
               std::invalid_argument);
}

// --- ParamSet / ParamGrid --------------------------------------------------

TEST(ParamSet, KeepsInsertionOrderAndRendersLabel) {
  ParamSet set;
  set.set("n", ParamValue(7));
  set.set("mix", ParamValue("honest"));
  set.set("n", ParamValue(9));  // overwrite keeps position
  EXPECT_EQ(set.label(), "n=9 mix=honest");
  EXPECT_EQ(set.get_int("n"), 9);
  EXPECT_THROW((void)set.get("absent"), std::invalid_argument);
}

TEST(ParamGrid, ExpandsCartesianProductFirstAxisSlowest) {
  const ParamGrid grid{{"a", {1, 2, 3}}, {"b", {"x", "y"}}};
  ASSERT_EQ(grid.size(), 6u);
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 6u);
  // First axis outermost, exactly like the nested loops it replaces.
  const std::vector<std::string> expected = {"a=1 b=x", "a=1 b=y",
                                             "a=2 b=x", "a=2 b=y",
                                             "a=3 b=x", "a=3 b=y"};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].label(), expected[i]) << i;
  }
}

TEST(ParamGrid, EmptyGridExpandsToOneEmptyPoint) {
  const ParamGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].entries().empty());
}

TEST(ParamGrid, RejectsMalformedAxes) {
  ParamGrid grid;
  grid.add_axis("a", {ParamValue(1)});
  EXPECT_THROW(grid.add_axis("a", {ParamValue(2)}), std::invalid_argument);
  EXPECT_THROW(grid.add_axis("b", {}), std::invalid_argument);
  EXPECT_THROW(grid.add_axis("c", {ParamValue(1), ParamValue("x")}),
               std::invalid_argument);
  // int + double on one numeric axis is fine.
  grid.add_axis("d", {ParamValue(1), ParamValue(2.5)});
}

TEST(ParamGrid, OverridesAxesWithTypedParsing) {
  ParamGrid grid{{"n", {4, 7}}, {"skew", {0.5, 1.0}}};
  EXPECT_TRUE(grid.override_axis("n", {"16", "32"}));
  EXPECT_FALSE(grid.override_axis("absent", {"1"}));
  EXPECT_THROW(grid.override_axis("n", {"banana"}), std::invalid_argument);
  EXPECT_THROW(grid.override_axis("skew", {}), std::invalid_argument);

  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].get_int("n"), 16);
  EXPECT_EQ(points[3].label(), "n=32 skew=1");
}

TEST(ParamGrid, MixedNumericAxisAcceptsDoubleOverrides) {
  ParamGrid grid;
  grid.add_axis("d", {ParamValue(1), ParamValue(2.5)});
  // The axis's own default values must be settable from the CLI.
  EXPECT_TRUE(grid.override_axis("d", {"2.5", "3"}));
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].get_double("d"), 2.5);
  EXPECT_DOUBLE_EQ(points[1].get_double("d"), 3.0);
}

// --- ScenarioRegistry ------------------------------------------------------

/// A scenario whose metrics are `value` and the run index.
Scenario labeled_scenario(std::string name, double value = 0.0) {
  return {std::move(name), [value](const RunContext& ctx) {
            MetricRecord m;
            m.set("value", value);
            m.set("index", static_cast<double>(ctx.run_index));
            return m;
          }};
}

TEST(ScenarioRegistry, RejectsDuplicateAndInvalidFamilies) {
  ScenarioRegistry registry;  // local; the global one stays untouched
  ScenarioFamily family;
  family.name = "dup";
  family.factory = [](const ParamSet&) { return labeled_scenario("dup/x"); };
  registry.register_family(family);
  EXPECT_THROW(registry.register_family(family), std::invalid_argument);

  ScenarioFamily unnamed;
  unnamed.factory = family.factory;
  EXPECT_THROW(registry.register_family(unnamed), std::invalid_argument);

  ScenarioFamily no_factory;
  no_factory.name = "nofactory";
  EXPECT_THROW(registry.register_family(no_factory),
               std::invalid_argument);

  // A scenario must carry a run function.
  EXPECT_THROW(Scenario("empty/x", Scenario::RunFn{}),
               support::ContractViolation);
}

TEST(ScenarioRegistry, ListsFamiliesSortedAndFindsByName) {
  ScenarioRegistry registry;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ScenarioFamily family;
    family.name = name;
    family.factory = [](const ParamSet&) { return labeled_scenario("x"); };
    registry.register_family(std::move(family));
  }
  const auto families = registry.families();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0]->name, "alpha");
  EXPECT_EQ(families[2]->name, "zeta");
  EXPECT_NE(registry.find("mid"), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(ScenarioRegistry, GlobalRegistryCarriesTheFullCatalog) {
  // The acceptance list: every former bench driver and example is
  // reachable through the registry.
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  for (const char* name :
       {"attestation_churn", "bft_scaling", "bitcoin_audit",
        "committee_pipeline", "component_cap", "diversity_audit",
        "double_spend", "example1_entropy", "fig1_entropy", "fork_rate",
        "micro", "pool_compromise", "proactive_recovery", "prop1_entropy",
        "prop2_unique", "prop3_abundance", "prop3_cost",
        "safety_condition", "selfish_mining", "two_tier",
        "vulnerability_window"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_GE(registry.size(), 21u);
}

// Figure 1's headline bound: Bitcoin's entropy stays below an 8-replica
// uniform BFT's 3 bits for every x.
TEST(ScenarioRegistry, Fig1EntropyStaysBelowBft8ForEveryX) {
  const ScenarioFamily* family =
      ScenarioRegistry::global().find("fig1_entropy");
  ASSERT_NE(family, nullptr);
  for (const auto& scenario : instantiate_family(*family, family->grids)) {
    const MetricRecord metrics = scenario->run(RunContext{1, 0});
    EXPECT_LT(metrics.get("entropy_bits"), 3.0) << scenario->name();
    EXPECT_GT(metrics.get("gap_to_bft8_bits"), 0.0) << scenario->name();
  }
}

TEST(ScenarioRegistry, InstantiateExpandsEveryGrid) {
  const ScenarioFamily* family =
      ScenarioRegistry::global().find("bft_scaling");
  ASSERT_NE(family, nullptr);
  const auto scenarios = instantiate_family(*family, family->grids);
  EXPECT_EQ(scenarios.size(), family->instance_count());
  // 6 sizes + 4 fault mixes + the modeled-crypto worker lane (2 sizes ×
  // 4 worker counts) + the protocol-comparison lane (4 sizes × 2
  // protocols).
  EXPECT_EQ(scenarios.size(), 26u);
}

// gossip_scale's size axes are integers: a negative or fractional node
// count is a usage error, never a cast of an out-of-range double.
TEST(ScenarioRegistry, GossipScaleRejectsNegativeAndFractionalSizes) {
  const ScenarioFamily* family =
      ScenarioRegistry::global().find("gossip_scale");
  ASSERT_NE(family, nullptr);
  ParamSet negative;
  negative.set("n", -1);
  negative.set("degree", 4);
  EXPECT_THROW((void)family->factory(negative), std::invalid_argument);

  ParamGrid grid = family->grids.front();
  EXPECT_THROW(grid.override_axis("n", {"10000.5"}), std::invalid_argument);
}

// --- the global work queue vs serial ---------------------------------------

// The tentpole acceptance: a suite-level sweep over several *real*
// families through the global (scenario, seed) queue is bit-identical to
// the serial run. Families chosen to cover distinct subsystems
// (diversity sampling, two-tier policy, Monte-Carlo fault injection,
// pool compromise).
TEST(GlobalQueue, SuiteSweepBitIdenticalToSerialAcrossFamilies) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  std::vector<std::unique_ptr<Scenario>> scenarios;
  for (const char* name :
       {"diversity_audit", "two_tier", "safety_condition",
        "pool_compromise"}) {
    const ScenarioFamily* family = registry.find(name);
    ASSERT_NE(family, nullptr) << name;
    // Shrink the heavier grids so the test stays fast.
    std::vector<ParamGrid> grids = family->grids;
    for (ParamGrid& grid : grids) {
      grid.override_axis("alpha", {"1", "4"});
      grid.override_axis("attested_fraction", {"0.5"});
      grid.override_axis("zipf", {"1"});
      grid.override_axis("trials", {"200"});
    }
    for (auto& scenario : instantiate_family(*family, grids)) {
      scenarios.push_back(std::move(scenario));
    }
  }
  ASSERT_GE(scenarios.size(), 7u);

  std::vector<const Scenario*> pointers;
  for (const auto& scenario : scenarios) pointers.push_back(scenario.get());

  const auto serial =
      SweepRunner({.base_seed = 11, .num_seeds = 3, .threads = 1})
          .run_all(pointers);
  const auto parallel =
      SweepRunner({.base_seed = 11, .num_seeds = 3, .threads = 8})
          .run_all(pointers);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(serial[s].size(), parallel[s].size());
    for (std::size_t i = 0; i < serial[s].size(); ++i) {
      ASSERT_TRUE(serial[s][i].ok()) << pointers[s]->name();
      ASSERT_TRUE(parallel[s][i].ok()) << pointers[s]->name();
      EXPECT_EQ(serial[s][i].seed, parallel[s][i].seed);
      // operator== compares doubles exactly: bit-identical, not "close".
      EXPECT_TRUE(serial[s][i].metrics == parallel[s][i].metrics)
          << pointers[s]->name() << " seed index " << i;
    }
  }
}

TEST(GlobalQueue, FillsWorkersAcrossScenariosAtOneSeed) {
  // 6 one-seed scenarios on 6 threads: the global queue must execute all
  // of them (the old per-scenario pools would have used 1 thread each in
  // sequence — observable only as wasted wall-clock, so here we just pin
  // the result shape).
  std::vector<std::unique_ptr<Scenario>> owned;
  std::vector<const Scenario*> pointers;
  for (int i = 0; i < 6; ++i) {
    owned.push_back(std::make_unique<Scenario>(
        labeled_scenario("q/" + std::to_string(i), static_cast<double>(i))));
    pointers.push_back(owned.back().get());
  }
  const auto results =
      SweepRunner({.base_seed = 5, .num_seeds = 1, .threads = 6})
          .run_all(pointers);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t s = 0; s < results.size(); ++s) {
    ASSERT_EQ(results[s].size(), 1u);
    EXPECT_DOUBLE_EQ(results[s][0].metrics.get("value"),
                     static_cast<double>(s));
  }
}

// --- golden output for a parameterized family ------------------------------

/// Deterministic parameterized family whose metrics are exact small
/// integers, so CSV/JSON bytes are stable across platforms.
Scenario golden_scenario(std::int64_t a, std::int64_t b) {
  return {"golden/a=" + std::to_string(a) + " b=" + std::to_string(b),
          [a, b](const RunContext& ctx) {
            MetricRecord m;
            m.set("combined", static_cast<double>(a * 10 + b));
            m.set("index", static_cast<double>(ctx.run_index));
            return m;
          }};
}

TEST(GoldenOutput, CsvAndJsonForParameterizedFamily) {
  ScenarioFamily family;
  family.name = "golden";
  family.grids = {ParamGrid{{"a", {1, 2}}, {"b", {3, 4}}}};
  family.factory = [](const ParamSet& p) {
    return golden_scenario(p.get_int("a"), p.get_int("b"));
  };

  ScenarioSuite suite("");
  for (auto& scenario : instantiate_family(family, family.grids)) {
    suite.add(std::move(scenario));
  }
  SuiteOptions options;
  options.sweep = {.base_seed = 9, .num_seeds = 1, .threads = 2};

  std::ostringstream csv, err;
  options.csv = true;
  ASSERT_EQ(suite.run(options, csv, err), 0);
  EXPECT_EQ(csv.str(),
            "family,scenario,seeds,metric,mean,stddev,min,max\n"
            "golden,golden/a=1 b=3,1,combined,13,0,13,13\n"
            "golden,golden/a=1 b=3,1,index,0,0,0,0\n"
            "golden,golden/a=1 b=4,1,combined,14,0,14,14\n"
            "golden,golden/a=1 b=4,1,index,0,0,0,0\n"
            "golden,golden/a=2 b=3,1,combined,23,0,23,23\n"
            "golden,golden/a=2 b=3,1,index,0,0,0,0\n"
            "golden,golden/a=2 b=4,1,combined,24,0,24,24\n"
            "golden,golden/a=2 b=4,1,index,0,0,0,0\n");

  std::ostringstream json, err2;
  options.csv = false;
  options.json = true;
  ASSERT_EQ(suite.run(options, json, err2), 0);
  const std::string seed = std::to_string(derive_seed(9, 0));
  std::string expected = "{\n  \"scenarios\": [";
  bool first = true;
  for (const char* name :
       {"golden/a=1 b=3", "golden/a=1 b=4", "golden/a=2 b=3",
        "golden/a=2 b=4"}) {
    const int combined = (name[9] - '0') * 10 + (name[13] - '0');
    expected += first ? "\n" : ",\n";
    first = false;
    expected += "    {\"name\": \"" + std::string(name) +
                "\", \"family\": \"golden\", \"runs\": [\n      {\"seed\": " +
                seed + ", \"metrics\": {\"combined\": " +
                std::to_string(combined) + ", \"index\": 0}}\n    ]}";
  }
  expected += "\n  ]\n}\n";
  EXPECT_EQ(json.str(), expected);
}

// --- option validation -----------------------------------------------------

TEST(SuiteOptionsFlags, RejectsZeroNegativeAndGarbageNumerics) {
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    SuiteOptions options;
    std::ostringstream err;
    const bool ok = parse_suite_options(static_cast<int>(args.size()),
                                        args.data(), options, err);
    return std::make_pair(ok, err.str());
  };

  auto [ok_zero, err_zero] = parse({"--seeds", "0"});
  EXPECT_FALSE(ok_zero);
  EXPECT_NE(err_zero.find("--seeds"), std::string::npos);
  EXPECT_NE(err_zero.find("'0'"), std::string::npos);

  EXPECT_FALSE(parse({"--seeds", "-3"}).first);
  EXPECT_FALSE(parse({"--seeds", "abc"}).first);
  EXPECT_FALSE(parse({"--seed", "-1"}).first);
  EXPECT_FALSE(parse({"--seed", "1.5"}).first);
  EXPECT_FALSE(parse({"--threads", "many"}).first);
  EXPECT_FALSE(parse({"--threads"}).first);  // missing value
  EXPECT_TRUE(parse({"--threads", "0"}).first);  // 0 = hardware default
  EXPECT_FALSE(parse({"--seed", ""}).first);
  EXPECT_FALSE(parse({"--seed", " 1"}).first);
  EXPECT_FALSE(parse({"--seed", "+1"}).first);

  // Values past 2^64 - 1 are rejected, not clamped, and the error names
  // the flag; the largest 64-bit seed is still accepted.
  for (const auto& [flag, value] :
       {std::pair{"--seed", "18446744073709551616"},
        std::pair{"--seeds", "99999999999999999999"},
        std::pair{"--threads", "99999999999999999999"}}) {
    auto [ok, message] = parse({flag, value});
    EXPECT_FALSE(ok) << flag;
    EXPECT_NE(message.find(std::string(flag) + " expects"),
              std::string::npos)
        << message;
  }
  EXPECT_TRUE(parse({"--seed", "18446744073709551615"}).first);

  auto [ok_err, message] = parse({"--seeds", "abc"});
  EXPECT_FALSE(ok_err);
  EXPECT_NE(message.find("error:"), std::string::npos);
  EXPECT_NE(message.find("usage:"), std::string::npos);
}

TEST(SuiteOptionsFlags, ParsesFamilyAndSetFlags) {
  const char* argv[] = {"prog", "--family", "a,b",       "--family",
                        "c",    "--set",    "axis=1,2.5", "--set",
                        "op=fast"};
  SuiteOptions options;
  std::ostringstream err;
  ASSERT_TRUE(parse_suite_options(9, argv, options, err));
  ASSERT_EQ(options.families.size(), 3u);
  EXPECT_EQ(options.families[0], "a");
  EXPECT_EQ(options.families[2], "c");
  ASSERT_EQ(options.sets.size(), 2u);
  EXPECT_EQ(options.sets[0].axis, "axis");
  ASSERT_EQ(options.sets[0].values.size(), 2u);
  EXPECT_EQ(options.sets[0].values[1], "2.5");
  EXPECT_EQ(options.sets[1].axis, "op");

  const char* bad_set[] = {"prog", "--set", "novalue"};
  SuiteOptions options2;
  std::ostringstream err2;
  EXPECT_FALSE(parse_suite_options(3, bad_set, options2, err2));
  const char* empty_value[] = {"prog", "--set", "a=1,,2"};
  SuiteOptions options3;
  std::ostringstream err3;
  EXPECT_FALSE(parse_suite_options(3, empty_value, options3, err3));
}

}  // namespace
}  // namespace findep::runtime
