// The task wire format: serializable sweep tasks and results (JSONL).
//
// A distributed sweep is the in-process sweep cut at the global work
// queue: the coordinator writes the same expanded instances the sweep
// runs (`expand_selection`) as `TaskSpec` lines (`--emit-tasks`), any
// number of workers execute tasks through the same registry and
// `run_tasks` list the in-process sweep uses (`--worker`: task JSONL on
// stdin, `TaskResult` JSONL on stdout), and a merge step reads the
// result shards back (`read_shards`, also behind `--report`) into the
// sweep's own `render_results` (`--merge`). Because a worker derives the
// run seed exactly like `SweepRunner` (`derive_seed(base_seed, run_index)`)
// and doubles travel as 17-significant-digit shortest-round-trip text,
// the merged table/CSV/JSON is byte-identical to sweeping the same
// catalog in one process — the repo's reproducibility contract survives
// sharding.
//
// Wire schema (one JSON object per line; doubles may be the bare tokens
// `inf`, `-inf`, `nan` — a deliberate JSONL extension, parsed by this
// module on both sides):
//
//   task:   {"family": "...", "params": [{"name": "...", "type":
//           "bool|int|double|string", "value": "..."}, ...],
//           "base_seed": N, "run_index": N, "sequence": N}
//   result: {"family": "...", "scenario": "...", "sequence": N,
//           "seed": N, "run_index": N, "metrics": {...}}   (ok)
//           {..., "error": "..."}                          (failed run)
//
// `sequence` is the scenario instance's position in the emitted catalog;
// the merge orders scenarios by it (ties by first appearance), which
// reproduces the in-process sweep order no matter how tasks were sharded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"

namespace findep::runtime {

/// One executable unit of a sweep, self-contained on the wire: which
/// family, which grid point, and which run of the sweep (the worker
/// derives the actual seed as derive_seed(base_seed, run_index)).
struct TaskSpec {
  std::string family;
  ParamSet params;
  std::uint64_t base_seed = 1;
  std::size_t run_index = 0;
  /// Catalog position of the scenario instance (merge ordering key).
  std::size_t sequence = 0;
};

/// One executed task: the task's identity plus its RunRecord.
struct TaskResult {
  std::string family;
  std::string scenario;  // instance name, e.g. "bft_scaling/n=7"
  std::size_t sequence = 0;
  RunRecord record;
};

// --- JSON round-trips -------------------------------------------------------
// Values round-trip bit-faithfully: doubles are rendered shortest-exact
// (params) or with 17 significant digits (metrics), including inf/nan and
// denormals. The from_json parsers throw std::invalid_argument with a
// descriptive message on malformed or type-mismatched input.

[[nodiscard]] std::string to_json(const ParamValue& value);
[[nodiscard]] std::string to_json(const ParamSet& params);
[[nodiscard]] std::string to_json(const MetricRecord& metrics);
[[nodiscard]] std::string to_json(const RunRecord& record);
[[nodiscard]] std::string to_json(const TaskSpec& task);
[[nodiscard]] std::string to_json(const TaskResult& result);

[[nodiscard]] ParamValue param_value_from_json(const std::string& text);
[[nodiscard]] ParamSet param_set_from_json(const std::string& text);
[[nodiscard]] MetricRecord metric_record_from_json(const std::string& text);
[[nodiscard]] RunRecord run_record_from_json(const std::string& text);
[[nodiscard]] TaskSpec task_spec_from_json(const std::string& text);
[[nodiscard]] TaskResult task_result_from_json(const std::string& text);

// --- the three pipeline stages ---------------------------------------------

/// Coordinator: writes `instances` (see expand_selection) as task JSONL
/// on `out`, scenario-major (all run indices of one instance
/// consecutively), `num_seeds` tasks per instance, each carrying its
/// instance's `sequence`.
void emit_task_catalog(const std::vector<CatalogInstance>& instances,
                       const SweepOptions& sweep, std::ostream& out);

/// Worker: reads task JSONL from `in` (blank lines ignored), executes
/// every task through the global registry on `threads` workers via the
/// run_task_pool seam, and streams result JSONL to `out` in input order.
/// A malformed line or an unknown family is a protocol error: reported on
/// `err` with its line number, exit code 2, nothing executed. A task
/// whose factory rejects its parameters or whose run throws becomes an
/// error-carrying result instead. Returns 0 when every record is ok, 1
/// when any run failed.
int run_worker(std::istream& in, std::ostream& out, std::ostream& err,
               std::size_t threads);

/// The one shard reader (`--merge` and `--report`): appends the result
/// JSONL of `paths` ("-" = stdin) to `results` in path then line order,
/// skipping blank and whitespace-only lines. An unopenable file or a
/// malformed line is reported on `err` with its path and line number,
/// and returns false.
[[nodiscard]] bool read_shards(const std::vector<std::string>& paths,
                               std::vector<TaskResult>& results,
                               std::ostream& err);

/// Merge: reads result shards through read_shards, groups records by
/// (family, scenario, sequence) — sequence keeps same-named catalog
/// instances apart — ordered by (sequence, first appearance), and renders
/// through render_results: `csv`/`json` exactly as the in-process sweep
/// would, otherwise tables under a shard-count banner.
/// Duplicate (scenario, seed, run_index) records — overlapping shards —
/// and unreadable files or lines are reported on `err` with exit code 2.
/// Returns 1 when any merged record carries an error, else 0.
int merge_shards(const std::vector<std::string>& paths, bool csv, bool json,
                 std::ostream& out, std::ostream& err);

}  // namespace findep::runtime
