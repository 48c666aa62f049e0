// The uniform experiment flags and the in-process sweep behind
// `findep-bench`.
//
// parse_suite_options() reads the flags below; run_families_main()
// (runtime/registry.h) resolves them against the scenario registry,
// expands the selection once (expand_selection), opens `--out`, and
// hands the instances to sweep_instances() here or to the wire modes of
// runtime/task.h. The sweep and `--merge` render through one
// render_results().
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
//                 (a sweep keeps a one-line confirmation on stdout, so
//                 scripted sweeps can pipe freely)
//
// Distributed-sweep modes (mutually exclusive — see runtime/task.h for
// the wire protocol):
//   --emit-tasks  print the selected catalog as task JSONL and exit
//   --worker      execute task JSONL from stdin, stream result JSONL
//   --merge F...  gather result shards ("-" = stdin) into the standard
//                 table/CSV/JSON rendering
//
// All instances of a sweep go through ONE global (scenario, seed) work
// queue, so a multi-scenario sweep fills every worker even at --seeds 1;
// per-run results are still bit-identical to --threads 1.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/registry.h"
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
};

/// Parses the uniform flags; returns false (after printing a specific
/// "error: ..." line plus usage to `err`) on a malformed command line —
/// including non-numeric, negative, or zero values where a positive
/// count is required.
[[nodiscard]] bool parse_suite_options(int argc, const char* const* argv,
                                       SuiteOptions& options,
                                       std::ostream& err);

/// The one render step: `sink` as JSON, CSV or (default) tables under a
/// `title` banner and the `detail` text, then one line per failed run on
/// `err`. Returns 1 when any run failed, else 0.
int render_results(const MetricsSink& sink, bool csv, bool json,
                   const std::string& title, const std::string& detail,
                   std::ostream& out, std::ostream& err);

/// The in-process sweep: runs every instance across `options.sweep`'s
/// seeds through SweepRunner's one work queue and renders the results
/// as `options` asks. Returns render_results' code.
int sweep_instances(const std::vector<CatalogInstance>& instances,
                    const SuiteOptions& options, std::ostream& out,
                    std::ostream& err);

}  // namespace findep::runtime
