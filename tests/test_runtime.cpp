// The experiment runtime: sweep determinism, deterministic merging, and
// the suite driver.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bft_test_util.h"
#include "runtime/metrics.h"
#include "runtime/registry.h"
#include "runtime/scenario.h"
#include "runtime/suite.h"
#include "runtime/sweep.h"

namespace findep::runtime {
namespace {

/// Cheap deterministic scenario: metrics are pure functions of the seed.
Scenario echo_scenario() {
  return {"echo/basic", [](const RunContext& ctx) {
            MetricRecord m;
            m.set("seed_lo", static_cast<double>(ctx.seed & 0xffffffff));
            m.set("index", static_cast<double>(ctx.run_index));
            return m;
          }};
}

Scenario failing_scenario() {
  return {"echo/failing", [](const RunContext& ctx) {
            if (ctx.run_index % 2 == 1) throw std::runtime_error("boom");
            MetricRecord m;
            m.set("ok", 1.0);
            return m;
          }};
}

TEST(MetricRecord, KeepsInsertionOrderAndOverwrites) {
  MetricRecord m;
  m.set("b", 2.0);
  m.set("a", 1.0);
  m.set("b", 3.0);
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0].first, "b");
  EXPECT_DOUBLE_EQ(m.get("b"), 3.0);
  EXPECT_TRUE(m.has("a"));
  EXPECT_FALSE(m.has("c"));
}

TEST(DeriveSeed, StableAndCollisionFreeOverSweep) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = derive_seed(7, i);
    EXPECT_EQ(s, derive_seed(7, i));  // pure function
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
}

TEST(SweepRunner, RecordsIndexedByRunNotCompletion) {
  const Scenario scenario = echo_scenario();
  const SweepRunner runner({.base_seed = 3, .num_seeds = 16, .threads = 8});
  const auto records = runner.run(scenario);
  ASSERT_EQ(records.size(), 16u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].run_index, i);
    EXPECT_EQ(records[i].seed, derive_seed(3, i));
    EXPECT_DOUBLE_EQ(records[i].metrics.get("index"),
                     static_cast<double>(i));
  }
}

// The acceptance contract: a sweep of >= 8 seeds of the BFT scaling
// scenario on >= 4 worker threads produces per-seed metrics bit-identical
// to the serial run (each worker owns its own Simulator + SimNetwork +
// RNG, so thread scheduling cannot leak into results).
TEST(SweepRunner, ParallelBftSweepBitIdenticalToSerial) {
  const Scenario scenario = replication::bft_scaling_cell(4, 1, 3);
  const auto serial =
      SweepRunner({.base_seed = 42, .num_seeds = 8, .threads = 1})
          .run(scenario);
  const auto parallel =
      SweepRunner({.base_seed = 42, .num_seeds = 8, .threads = 4})
          .run(scenario);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    // operator== compares doubles exactly: bit-identical, not "close".
    EXPECT_TRUE(serial[i].metrics == parallel[i].metrics) << "seed index "
                                                          << i;
  }
}

TEST(SweepRunner, IdenticallySeededRunnersAgree) {
  const Scenario scenario = replication::bft_scaling_cell(4, 1, 2);
  const SweepOptions options{.base_seed = 9, .num_seeds = 4, .threads = 4};
  const auto a = SweepRunner(options).run(scenario);
  const auto b = SweepRunner(options).run(scenario);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

TEST(SweepRunner, CapturesPerRunErrorsWithoutAbortingSweep) {
  const Scenario scenario = failing_scenario();
  const auto records =
      SweepRunner({.base_seed = 1, .num_seeds = 4, .threads = 2})
          .run(scenario);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_TRUE(records[0].ok());
  EXPECT_FALSE(records[1].ok());
  EXPECT_EQ(records[1].error, "boom");
  EXPECT_TRUE(records[2].ok());
}

TEST(MetricsSink, SortsRecordsBySeedNotArrivalOrder) {
  MetricsSink sink;
  std::vector<RunRecord> records(3);
  records[0].seed = 900;
  records[1].seed = 1;
  records[2].seed = 50;
  sink.add("s", "f", records);
  const auto& stored = sink.entries().front().records;
  EXPECT_EQ(stored[0].seed, 1u);
  EXPECT_EQ(stored[1].seed, 50u);
  EXPECT_EQ(stored[2].seed, 900u);
}

TEST(MetricsSink, JsonIdenticalForSerialAndParallelSweeps) {
  const Scenario scenario = echo_scenario();
  const auto render = [&](std::size_t threads) {
    MetricsSink sink;
    sink.add(scenario.name(), scenario.family(),
             SweepRunner({.base_seed = 5, .num_seeds = 8, .threads = threads})
                 .run(scenario));
    std::ostringstream out;
    sink.print_json(out);
    return out.str();
  };
  EXPECT_EQ(render(1), render(4));
}

TEST(MetricsSink, TableGroupsByFamily) {
  MetricsSink sink;
  RunRecord r;
  r.seed = 1;
  r.metrics.set("x", 1.5);
  sink.add("fam/a", "fam", {r});
  sink.add("fam/b", "fam", {r});
  std::ostringstream out;
  sink.print_tables(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("fam/a"), std::string::npos);
  EXPECT_NE(text.find("fam/b"), std::string::npos);
  EXPECT_NE(text.find("x"), std::string::npos);
}

TEST(Suite, ParsesUniformFlags) {
  const char* argv[] = {"prog", "--seed", "77", "--seeds", "5",
                        "--threads", "2", "--only", "bft", "--json"};
  SuiteOptions options;
  std::ostringstream err;
  ASSERT_TRUE(parse_suite_options(10, argv, options, err));
  EXPECT_EQ(options.sweep.base_seed, 77u);
  EXPECT_EQ(options.sweep.num_seeds, 5u);
  EXPECT_EQ(options.sweep.threads, 2u);
  EXPECT_EQ(options.only, "bft");
  EXPECT_TRUE(options.json);
  EXPECT_FALSE(options.csv);
}

TEST(Suite, RejectsUnknownOrTruncatedFlags) {
  SuiteOptions options;
  std::ostringstream err;
  const char* bad[] = {"prog", "--frobnicate"};
  EXPECT_FALSE(parse_suite_options(2, bad, options, err));
  const char* truncated[] = {"prog", "--seeds"};
  EXPECT_FALSE(parse_suite_options(2, truncated, options, err));
}

TEST(Suite, RunsMatchingScenariosAndReportsErrors) {
  ScenarioFamily family;
  family.name = "echo";
  family.grids = {ParamGrid{{"case", {"basic", "failing"}}}};
  family.factory = [](const ParamSet& p) {
    return p.get_string("case") == "basic" ? echo_scenario()
                                           : failing_scenario();
  };
  const FamilySelection selection = {{&family, family.grids}};
  SuiteOptions options;
  options.sweep = {.base_seed = 1, .num_seeds = 2, .threads = 1};

  std::ostringstream out, err;
  EXPECT_EQ(sweep_instances(expand_selection(selection, "basic", ""), options,
                            out, err),
            0);
  EXPECT_NE(out.str().find("echo"), std::string::npos);
  EXPECT_EQ(out.str().find("failing"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(sweep_instances(expand_selection(selection, "failing", ""),
                            options, out2, err2),
            1);
  EXPECT_NE(err2.str().find("boom"), std::string::npos);
}

}  // namespace
}  // namespace findep::runtime
