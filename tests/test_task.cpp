// The task wire format: JSON round-trips for params, metrics and run
// records (including inf/nan/denormal values and error-carrying records),
// the emit → worker → merge pipeline's byte-identity with the in-process
// sweep across real families, deterministic worker output, CSV escaping,
// and the new CLI flags.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "runtime/suite.h"
#include "runtime/sweep.h"
#include "runtime/task.h"
#include "support/rng.h"

namespace findep::runtime {
namespace {

// --- ParamValue / ParamSet round-trips --------------------------------------

TEST(ParamValueJson, RoundTripsEveryAlternative) {
  for (const ParamValue& value :
       {ParamValue(true), ParamValue(false), ParamValue(std::int64_t{-42}),
        ParamValue(std::int64_t{1} << 62), ParamValue(0.1),
        ParamValue(1.0 / 3.0), ParamValue(-0.0), ParamValue("plain"),
        ParamValue("with \"quotes\", commas\nand\tcontrol\x01 bytes")}) {
    const ParamValue back = param_value_from_json(to_json(value));
    EXPECT_TRUE(back == value) << to_json(value);
    // Serialization is a fixed point: round-tripping cannot drift.
    EXPECT_EQ(to_json(back), to_json(value));
  }
}

TEST(ParamValueJson, PreservesTypeOfIntegralDoubles) {
  // "7" the int and "7" the double are different wire values; the type
  // tag keeps them apart even though both render as "7".
  const ParamValue as_int{std::int64_t{7}};
  const ParamValue as_double{7.0};
  EXPECT_TRUE(param_value_from_json(to_json(as_int)).is_int());
  EXPECT_TRUE(param_value_from_json(to_json(as_double)).is_double());
}

TEST(ParamValueJson, RoundTripsNonFiniteAndDenormalDoubles) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  for (const double v : {kInf, -kInf, kDenormMin, -kDenormMin, 1e-310}) {
    const ParamValue back = param_value_from_json(to_json(ParamValue(v)));
    EXPECT_EQ(back.as_double(), v) << v;
  }
  const ParamValue nan_back = param_value_from_json(
      to_json(ParamValue(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(nan_back.as_double()));
}

TEST(ParamValueJson, RejectsMalformedInput) {
  EXPECT_THROW((void)param_value_from_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)param_value_from_json(
                   R"({"type": "int", "value": "abc"})"),
               std::invalid_argument);
  EXPECT_THROW((void)param_value_from_json(
                   R"({"type": "quaternion", "value": "1"})"),
               std::invalid_argument);
  EXPECT_THROW((void)param_value_from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)param_value_from_json(
                   R"({"type": "int", "value": "1"} trailing)"),
               std::invalid_argument);
}

TEST(ParamValueJson, RejectsDeeplyNestedInput) {
  // The reader bounds recursion depth (found by tests/fuzz_task_json):
  // a pathological run of '[' must raise invalid_argument, not overflow
  // the stack. Depth 63 still parses as a (shape-invalid) value; 4096
  // blows past the bound.
  const std::string deep(4096, '[');
  EXPECT_THROW((void)param_set_from_json(deep), std::invalid_argument);
  const std::string near = std::string(63, '[') + std::string(63, ']');
  EXPECT_THROW((void)param_value_from_json(near), std::invalid_argument);
}

TEST(ParamSetJson, RoundTripsMixedTypesInOrder) {
  ParamSet params;
  params.set("n", ParamValue(std::int64_t{7}));
  params.set("skew", ParamValue(0.5));
  params.set("mix", ParamValue("byzantine, \"lazy\""));
  params.set("fast", ParamValue(true));
  const ParamSet back = param_set_from_json(to_json(params));
  ASSERT_EQ(back.entries().size(), 4u);
  // Order is part of the identity (it names scenarios): must survive.
  EXPECT_EQ(back.label(), params.label());
  EXPECT_EQ(back.get_int("n"), 7);
  EXPECT_DOUBLE_EQ(back.get_double("skew"), 0.5);
  EXPECT_EQ(back.get_string("mix"), "byzantine, \"lazy\"");
  EXPECT_TRUE(back.get_bool("fast"));
  EXPECT_EQ(to_json(back), to_json(params));
}

TEST(ParamSetJson, PropertyRandomSetsAreSerializationFixedPoints) {
  support::Rng rng(2026);
  for (int iteration = 0; iteration < 200; ++iteration) {
    ParamSet params;
    const std::size_t n = rng.below(6);
    for (std::size_t p = 0; p < n; ++p) {
      const std::string name = "p" + std::to_string(p);
      switch (rng.below(4)) {
        case 0: params.set(name, ParamValue(rng.below(2) == 0)); break;
        case 1:
          params.set(name,
                     ParamValue(static_cast<std::int64_t>(rng())));
          break;
        case 2: {
          // Random bit patterns: hits denormals, huge/tiny magnitudes and
          // occasionally inf/nan.
          const std::uint64_t bits = rng();
          double v;
          std::memcpy(&v, &bits, sizeof v);
          params.set(name, ParamValue(v));
          break;
        }
        default:
          params.set(name, ParamValue("s" + std::to_string(rng() % 97)));
      }
    }
    const std::string wire = to_json(params);
    const ParamSet back = param_set_from_json(wire);
    EXPECT_EQ(to_json(back), wire) << "iteration " << iteration;
    EXPECT_EQ(back.entries().size(), params.entries().size());
  }
}

// --- MetricRecord / RunRecord round-trips -----------------------------------

TEST(MetricRecordJson, RoundTripsNonFiniteAndDenormalValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MetricRecord metrics;
  metrics.set("plain", 1.5);
  metrics.set("third", 1.0 / 3.0);
  metrics.set("pos_inf", kInf);
  metrics.set("neg_inf", -kInf);
  metrics.set("nan", std::numeric_limits<double>::quiet_NaN());
  metrics.set("denorm_min", std::numeric_limits<double>::denorm_min());
  metrics.set("denormal", 1e-310);
  metrics.set("neg_zero", -0.0);
  metrics.set("huge", 1.7976931348623157e308);

  const MetricRecord back = metric_record_from_json(to_json(metrics));
  ASSERT_EQ(back.entries().size(), metrics.entries().size());
  for (std::size_t i = 0; i < metrics.entries().size(); ++i) {
    const auto& [name, value] = metrics.entries()[i];
    EXPECT_EQ(back.entries()[i].first, name);
    const double got = back.entries()[i].second;
    // Bit-faithful, not just "close": compare the representation.
    std::uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &value, sizeof value);
    std::memcpy(&got_bits, &got, sizeof got);
    EXPECT_EQ(got_bits, want_bits) << name;
  }
  EXPECT_EQ(to_json(back), to_json(metrics));
}

TEST(RunRecordJson, RoundTripsOkAndErrorRecords) {
  RunRecord ok;
  ok.seed = 0xffffffffffffffffULL;  // full uint64 range must survive
  ok.run_index = 12;
  ok.metrics.set("m", 2.25);
  const RunRecord ok_back = run_record_from_json(to_json(ok));
  EXPECT_EQ(ok_back.seed, ok.seed);
  EXPECT_EQ(ok_back.run_index, ok.run_index);
  EXPECT_TRUE(ok_back.ok());
  EXPECT_TRUE(ok_back.metrics == ok.metrics);

  RunRecord failed;
  failed.seed = 7;
  failed.run_index = 3;
  failed.error = "contract violated: \"n >= 4\",\nline 2";
  const RunRecord failed_back = run_record_from_json(to_json(failed));
  EXPECT_FALSE(failed_back.ok());
  EXPECT_EQ(failed_back.error, failed.error);
  EXPECT_EQ(failed_back.seed, 7u);
  EXPECT_TRUE(failed_back.metrics.empty());
  EXPECT_EQ(to_json(failed_back), to_json(failed));
}

TEST(RunRecordJson, PropertyRandomRecordsAreSerializationFixedPoints) {
  support::Rng rng(77);
  for (int iteration = 0; iteration < 200; ++iteration) {
    RunRecord record;
    record.seed = rng();
    record.run_index = rng.below(1000);
    if (rng.below(5) == 0) {
      record.error = "error #" + std::to_string(rng() % 1000);
    } else {
      const std::size_t n = 1 + rng.below(5);
      for (std::size_t m = 0; m < n; ++m) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        record.metrics.set("m" + std::to_string(m), v);
      }
    }
    const std::string wire = to_json(record);
    EXPECT_EQ(to_json(run_record_from_json(wire)), wire)
        << "iteration " << iteration;
  }
}

// --- TaskSpec / TaskResult --------------------------------------------------

TEST(TaskSpecJson, RoundTripsAndToleratesMissingSequence) {
  TaskSpec task;
  task.family = "bft_scaling";
  task.params.set("n", ParamValue(std::int64_t{7}));
  task.base_seed = 0x123456789abcdef0ULL;
  task.run_index = 5;
  task.sequence = 42;
  const TaskSpec back = task_spec_from_json(to_json(task));
  EXPECT_EQ(back.family, task.family);
  EXPECT_EQ(back.params.label(), task.params.label());
  EXPECT_EQ(back.base_seed, task.base_seed);
  EXPECT_EQ(back.run_index, task.run_index);
  EXPECT_EQ(back.sequence, 42u);

  // Hand-written tasks may omit the ordering key.
  const TaskSpec bare = task_spec_from_json(
      R"({"family": "micro", "params": [], "base_seed": 1, "run_index": 0})");
  EXPECT_EQ(bare.sequence, 0u);
  EXPECT_TRUE(bare.params.entries().empty());

  EXPECT_THROW((void)task_spec_from_json(R"({"params": []})"),
               std::invalid_argument);
}

TEST(TaskResultJson, RoundTripsBothShapes) {
  TaskResult result;
  result.family = "two_tier";
  result.scenario = "two_tier/alpha=2 attested_fraction=0.5";
  result.sequence = 9;
  result.record.seed = derive_seed(1, 0);
  result.record.run_index = 0;
  result.record.metrics.set("resilience", 0.75);
  const TaskResult back = task_result_from_json(to_json(result));
  EXPECT_EQ(back.scenario, result.scenario);
  EXPECT_EQ(back.sequence, 9u);
  EXPECT_TRUE(back.record.metrics == result.record.metrics);
  EXPECT_EQ(to_json(back), to_json(result));

  result.record.metrics = MetricRecord{};
  result.record.error = "boom";
  const TaskResult err_back = task_result_from_json(to_json(result));
  EXPECT_EQ(err_back.record.error, "boom");
  EXPECT_EQ(to_json(err_back), to_json(result));
}

// --- the pipeline: emit → worker → merge vs in-process ----------------------

/// The four real families the suite-level determinism test pins, with the
/// same grid shrinks so the test stays fast. Sorted by name: the order
/// run_families_main selects the whole catalog in.
FamilySelection shrunken_selection() {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  FamilySelection selection;
  for (const char* name :
       {"diversity_audit", "pool_compromise", "safety_condition",
        "two_tier"}) {
    const ScenarioFamily* family = registry.find(name);
    if (family == nullptr) ADD_FAILURE() << "missing family " << name;
    std::vector<ParamGrid> grids = family->grids;
    for (ParamGrid& grid : grids) {
      grid.override_axis("alpha", {"1", "4"});
      grid.override_axis("attested_fraction", {"0.5"});
      grid.override_axis("zipf", {"1"});
      grid.override_axis("trials", {"200"});
    }
    selection.emplace_back(family, std::move(grids));
  }
  return selection;
}

/// Renders the selection through the normal in-process suite path.
std::string run_in_process(const FamilySelection& selection,
                           const SuiteOptions& options) {
  ScenarioSuite suite("");
  for (const auto& [family, grids] : selection) {
    for (auto& scenario : instantiate_family(*family, grids)) {
      suite.add(std::move(scenario));
    }
  }
  std::ostringstream out, err;
  EXPECT_EQ(suite.run(options, out, err), 0) << err.str();
  return out.str();
}

/// Emits the selection as tasks, hand-shards them round-robin across
/// `shards` workers, executes each shard, and merges the result files.
std::string run_distributed(const FamilySelection& selection,
                            const SuiteOptions& options, std::size_t shards,
                            bool csv, bool json) {
  std::ostringstream tasks;
  emit_task_catalog(selection, options.sweep, options.only, "", tasks);

  // Round-robin sharding: deliberately NOT contiguous, so the merge's
  // sequence-based ordering (not shard order) is what restores catalog
  // order.
  std::vector<std::string> shard_tasks(shards);
  std::istringstream task_lines(tasks.str());
  std::string line;
  std::size_t index = 0;
  while (std::getline(task_lines, line)) {
    shard_tasks[index++ % shards] += line + '\n';
  }

  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards; ++s) {
    std::istringstream in(shard_tasks[s]);
    std::ostringstream out, err;
    EXPECT_EQ(run_worker(in, out, err, /*threads=*/0), 0) << err.str();
    const std::string path = ::testing::TempDir() + "findep_shard_" +
                             std::to_string(s) + ".jsonl";
    std::ofstream file(path);
    file << out.str();
    paths.push_back(path);
  }

  std::ostringstream merged, err;
  EXPECT_EQ(merge_shards(paths, csv, json, merged, err), 0) << err.str();
  return merged.str();
}

TEST(DistributedSweep, MergedShardsByteIdenticalToInProcessJson) {
  const FamilySelection selection = shrunken_selection();
  SuiteOptions options;
  options.sweep = {.base_seed = 11, .num_seeds = 2, .threads = 0};
  options.json = true;
  const std::string in_process = run_in_process(selection, options);
  const std::string distributed =
      run_distributed(selection, options, /*shards=*/3, false, true);
  EXPECT_EQ(distributed, in_process);
  // Meaningful comparison only if the sweep actually covered the catalog.
  EXPECT_NE(in_process.find("two_tier"), std::string::npos);
  EXPECT_NE(in_process.find("safety_condition"), std::string::npos);
}

TEST(DistributedSweep, MergedShardsByteIdenticalToInProcessCsv) {
  const FamilySelection selection = shrunken_selection();
  SuiteOptions options;
  options.sweep = {.base_seed = 11, .num_seeds = 2, .threads = 0};
  options.csv = true;
  const std::string in_process = run_in_process(selection, options);
  const std::string distributed =
      run_distributed(selection, options, /*shards=*/4, true, false);
  EXPECT_EQ(distributed, in_process);
}

TEST(DistributedSweep, EmitTasksShapeAndSeedDerivation) {
  const FamilySelection selection = shrunken_selection();
  SweepOptions sweep{.base_seed = 3, .num_seeds = 2, .threads = 0};
  std::ostringstream out;
  const std::size_t emitted = emit_task_catalog(selection, sweep, "", "", out);

  std::size_t instances = 0;
  for (const auto& [family, grids] : selection) {
    for (const ParamGrid& grid : grids) instances += grid.size();
  }
  EXPECT_EQ(emitted, instances * sweep.num_seeds);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  std::size_t last_sequence = 0;
  while (std::getline(lines, line)) {
    const TaskSpec task = task_spec_from_json(line);
    EXPECT_EQ(task.base_seed, 3u);
    EXPECT_LT(task.run_index, sweep.num_seeds);
    // Scenario-major: sequence is non-decreasing along the stream.
    EXPECT_GE(task.sequence, last_sequence);
    last_sequence = task.sequence;
    ++count;
  }
  EXPECT_EQ(count, emitted);
}

TEST(DistributedSweep, MergeKeepsSameNamedInstancesApart) {
  // A --set can collapse both bft_scaling grids onto the same point,
  // yielding two catalog instances with identical display names. The
  // in-process sweep renders both entries; the merge must too (sequence
  // is part of the merge group key precisely for this).
  const ScenarioFamily* family =
      ScenarioRegistry::global().find("bft_scaling");
  ASSERT_NE(family, nullptr);
  std::vector<ParamGrid> grids = family->grids;
  for (ParamGrid& grid : grids) {
    grid.override_axis("n", {"7"});
    grid.override_axis("mix", {"silent_backup"});
  }
  const FamilySelection selection = {{family, grids}};
  SuiteOptions options;
  options.sweep = {.base_seed = 2, .num_seeds = 1, .threads = 0};
  options.json = true;
  const std::string in_process = run_in_process(selection, options);
  const std::string distributed =
      run_distributed(selection, options, /*shards=*/2, false, true);
  EXPECT_EQ(distributed, in_process);
  // Both same-named instances must appear.
  const std::string needle = "\"name\": \"bft_scaling/n=7 silent_backup\"";
  const std::size_t first = in_process.find(needle);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(in_process.find(needle, first + 1), std::string::npos);
}

TEST(DistributedSweep, WorkerOutputIndependentOfThreadCount) {
  const FamilySelection selection = shrunken_selection();
  std::ostringstream tasks;
  emit_task_catalog(selection, {.base_seed = 5, .num_seeds = 1}, "", "", tasks);

  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    std::istringstream in(tasks.str());
    std::ostringstream out, err;
    EXPECT_EQ(run_worker(in, out, err, i == 0 ? 1 : 8), 0);
    outputs[i] = out.str();
  }
  // The ordered collector streams results in input order, so a worker's
  // stdout is deterministic on any thread count.
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_FALSE(outputs[0].empty());
}

TEST(DistributedSweep, WorkerTurnsFactoryRejectionIntoErrorRecord) {
  // "mix" is a string axis whose values the bft_scaling factory
  // validates: an unknown mix must come back as an error-carrying result
  // (exit 1), not kill the worker (exit 2). Every other axis keeps its
  // first grid value, so the mix is the only thing wrong with the task.
  const ScenarioFamily* family = ScenarioRegistry::global().find("bft_scaling");
  ASSERT_NE(family, nullptr);
  ParamGrid grid = family->grids.front();
  ASSERT_TRUE(grid.override_axis("mix", {"not_a_real_mix"}));
  TaskSpec task;
  task.family = "bft_scaling";
  task.params = grid.expand().front();
  std::istringstream in(to_json(task) + "\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_worker(in, out, err, 1), 1);
  const TaskResult result = task_result_from_json(out.str());
  EXPECT_FALSE(result.record.ok());
  EXPECT_NE(result.record.error.find("not_a_real_mix"), std::string::npos)
      << result.record.error;
  EXPECT_EQ(result.family, "bft_scaling");
  // The worker's stand-in name for a point its factory rejected.
  EXPECT_EQ(result.scenario, "bft_scaling/" + task.params.label());
}

TEST(DistributedSweep, WorkerRejectsMalformedAndUnknownTasks) {
  {
    std::istringstream in("this is not json\n");
    std::ostringstream out, err;
    EXPECT_EQ(run_worker(in, out, err, 1), 2);
    EXPECT_NE(err.str().find("line 1"), std::string::npos);
  }
  {
    std::istringstream in(
        R"({"family": "no_such_family", "params": [], "base_seed": 1, "run_index": 0})"
        "\n");
    std::ostringstream out, err;
    EXPECT_EQ(run_worker(in, out, err, 1), 2);
    EXPECT_NE(err.str().find("no_such_family"), std::string::npos);
  }
}

TEST(DistributedSweep, MergeRejectsOverlappingShards) {
  TaskResult result;
  result.family = "f";
  result.scenario = "f/x";
  result.record.seed = 9;
  result.record.run_index = 0;
  result.record.metrics.set("m", 1.0);
  const std::string path = ::testing::TempDir() + "findep_dup_shard.jsonl";
  std::ofstream file(path);
  file << to_json(result) << '\n' << to_json(result) << '\n';
  file.close();
  std::ostringstream out, err;
  EXPECT_EQ(merge_shards({path}, false, true, out, err), 2);
  EXPECT_NE(err.str().find("duplicate"), std::string::npos);
}

TEST(DistributedSweep, MergePropagatesErrorRecords) {
  TaskResult result;
  result.family = "f";
  result.scenario = "f/x";
  result.record.seed = 9;
  result.record.run_index = 0;
  result.record.error = "run failed";
  const std::string path = ::testing::TempDir() + "findep_err_shard.jsonl";
  std::ofstream file(path);
  file << to_json(result) << '\n';
  file.close();
  std::ostringstream out, err;
  EXPECT_EQ(merge_shards({path}, false, true, out, err), 1);
  EXPECT_NE(err.str().find("run failed"), std::string::npos);
}

// --- CSV escaping -----------------------------------------------------------

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, SinkQuotesScenarioAndMetricNames) {
  // Grid-built scenario names contain no commas today, but nothing
  // enforces that; the CSV must stay one row per record regardless.
  MetricsSink sink;
  RunRecord record;
  record.seed = 1;
  record.metrics.set("ns/op, hot", 2.0);
  sink.add("fam/a=1, b=\"x\"", "fam,ily", {record});
  std::ostringstream out;
  sink.print_csv(out);
  EXPECT_EQ(out.str(),
            "family,scenario,seeds,metric,mean,stddev,min,max\n"
            "\"fam,ily\",\"fam/a=1, b=\"\"x\"\"\",1,\"ns/op, hot\","
            "2,0,2,2\n");
}

// --- the new CLI flags ------------------------------------------------------

std::pair<bool, SuiteOptions> parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  SuiteOptions options;
  std::ostringstream err;
  const bool ok = parse_suite_options(static_cast<int>(args.size()),
                                      args.data(), options, err);
  return {ok, options};
}

TEST(WireFlags, MergeConsumesPathsUntilNextFlag) {
  const auto [ok, options] =
      parse({"--merge", "a.jsonl", "-", "b.jsonl", "--json"});
  ASSERT_TRUE(ok);
  EXPECT_TRUE(options.merge_mode);
  ASSERT_EQ(options.merge.size(), 3u);
  EXPECT_EQ(options.merge[1], "-");
  EXPECT_TRUE(options.json);

  EXPECT_FALSE(parse({"--merge"}).first);
  EXPECT_FALSE(parse({"--merge", "--json"}).first);
}

TEST(WireFlags, ModesAreMutuallyExclusiveAndOutParses) {
  EXPECT_TRUE(parse({"--emit-tasks"}).second.emit_tasks);
  EXPECT_TRUE(parse({"--worker"}).second.worker);
  EXPECT_FALSE(parse({"--emit-tasks", "--worker"}).first);
  EXPECT_FALSE(parse({"--worker", "--merge", "x"}).first);

  const auto [ok, options] = parse({"--out", "results.json", "--json"});
  ASSERT_TRUE(ok);
  EXPECT_EQ(options.out_file, "results.json");
  EXPECT_FALSE(parse({"--out"}).first);
}

}  // namespace
}  // namespace findep::runtime
