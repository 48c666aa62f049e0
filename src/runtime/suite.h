// ScenarioSuite: the uniform experiment flags and the sweep-and-render
// step behind `findep-bench`.
//
// parse_suite_options() reads the flags below; run_families_main()
// (runtime/registry.h) resolves them against the scenario registry, adds
// the selected scenarios to a suite, and ScenarioSuite::run() sweeps
// every scenario across the requested seeds on a worker pool and renders
// results through the MetricsSink.
//
//   --seed S      master seed (default 1); every per-run seed derives
//                 from it, so one flag reproduces an entire sweep
//   --seeds K     seeds per scenario (default 3)
//   --threads T   worker threads (default: hardware concurrency)
//   --only SUB    run only scenarios whose name contains SUB
//   --exclude SUB skip scenarios whose name contains SUB (applied after
//                 --only; what CI uses to carve protocol-comparison
//                 cells out of byte-identity cmp's)
//   --family F    run only the named families (repeatable / comma list)
//   --set A=V,V   override grid axis A with the listed values; a later
//                 --set of the same axis wins
//   --list        print the selected scenario families and exit
//   --csv / --json  machine-readable output instead of tables
//   --out FILE    write the rendered results to FILE instead of stdout
//                 (stdout keeps a one-line confirmation, so scripted
//                 sweeps can pipe freely)
//
// Distributed-sweep modes (mutually exclusive — see runtime/task.h for
// the wire protocol):
//   --emit-tasks  print the selected catalog as task JSONL and exit
//   --worker      execute task JSONL from stdin, stream result JSONL
//   --merge F...  gather result shards ("-" = stdin) into the standard
//                 table/CSV/JSON rendering
//
// All scenarios of a suite are swept through ONE global (scenario, seed)
// work queue, so a multi-scenario suite fills every worker even at
// --seeds 1; per-run results are still bit-identical to --threads 1.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/scenario.h"
#include "runtime/sweep.h"

namespace findep::runtime {

/// One `--set axis=v1,v2` occurrence; values stay raw strings until they
/// are parsed against the typed axis they override.
struct AxisOverride {
  std::string axis;
  std::vector<std::string> values;
};

struct SuiteOptions {
  SweepOptions sweep{.base_seed = 1, .num_seeds = 3, .threads = 0};
  std::string only;                    // substring filter; empty = all
  std::string exclude;                 // drop names containing this
  std::vector<std::string> families;   // --family; empty = all
  std::vector<AxisOverride> sets;      // --set axis=v1,v2
  bool list = false;
  bool csv = false;
  bool json = false;
  std::string out_file;                // --out; empty = stdout
  bool emit_tasks = false;             // --emit-tasks
  bool worker = false;                 // --worker
  std::vector<std::string> merge;      // --merge shard paths ("-" = stdin)
  bool merge_mode = false;
};

/// Parses the uniform flags; returns false (after printing a specific
/// "error: ..." line plus usage to `err`) on a malformed command line —
/// including non-numeric, negative, or zero values where a positive
/// count is required.
[[nodiscard]] bool parse_suite_options(int argc, const char* const* argv,
                                       SuiteOptions& options,
                                       std::ostream& err);

/// Routes driver output for `--out`: leaves `dest` untouched when `path`
/// is empty, otherwise opens `file` at `path` and points `dest` at it.
/// Returns false when the file cannot be opened. Open the output BEFORE
/// doing any work, so a bad path cannot discard a finished sweep.
[[nodiscard]] bool open_output(const std::string& path, std::ofstream& file,
                               std::ostream*& dest);

/// Flushes a file previously routed by open_output and reports write
/// failures: returns false (after an "error: ..." line on `err`) when
/// any write to `file` failed — a truncated results file must not exit
/// 0. No-op returning true when `dest` was never redirected.
[[nodiscard]] bool close_output(const std::string& path, std::ofstream& file,
                                const std::ostream* dest, std::ostream& err);

class ScenarioSuite {
 public:
  /// `intro` is printed (as a banner) before the results.
  explicit ScenarioSuite(std::string intro) : intro_(std::move(intro)) {}

  void add(std::unique_ptr<Scenario> scenario);

  template <typename S, typename... Args>
  void emplace(Args&&... args) {
    add(std::make_unique<S>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return scenarios_.size();
  }

  /// Sweeps every (matching) scenario and renders results to `out`.
  /// Returns a process exit code (non-zero when any run failed).
  int run(const SuiteOptions& options, std::ostream& out,
          std::ostream& err) const;

 private:
  std::string intro_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

}  // namespace findep::runtime
