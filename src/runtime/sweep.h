// SweepRunner: executes scenarios across K seeds on a worker pool fed
// from a single global (scenario, seed) work queue.
//
// Determinism contract: run i of a sweep with base seed S always executes
// with seed derive_seed(S, i); each run owns its whole simulation stack
// (Scenario::run is a pure function of the context), and results land in
// slot (scenario, i) of the output regardless of which worker finishes
// first. Hence a sweep on any thread count — including 1 — produces
// bit-identical per-seed records.
//
// The queue is sweep-wide, not per-scenario: every (scenario, run_index)
// pair of a multi-scenario sweep is one task of one prepared list,
// claimed by an atomic index, so a sweep of S scenarios keeps all
// workers busy even at --seeds 1.
//
// The queue itself is an abstraction: `run_task_pool` drains any
// `TaskSource` into any `ResultCollector` on the worker pool. The
// in-process sweep (`SweepRunner::run_all`) and the wire-format worker
// (`runtime/task.h`, tasks read as JSONL off stdin) both prepare a
// `SweepTask` list and drain it through `run_tasks`; they differ only in
// their collector, so distributing a sweep across processes cannot
// change per-run execution.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/scenario.h"

namespace findep::runtime {

/// One claimed unit of sweep work: a scenario instance to execute at an
/// already-derived seed. `slot` is an opaque position assigned with the
/// task (in-process: the flat scenario×run index; wire worker: the
/// task's input ordinal) that the ResultCollector uses to place the
/// record independently of completion order. The shared_ptr keeps
/// wire-built instances alive until their run completes; the in-process
/// sweep aliases caller-owned scenarios without ownership.
struct SweepTask {
  std::shared_ptr<const Scenario> scenario;
  std::uint64_t seed = 0;
  std::size_t run_index = 0;
  std::size_t slot = 0;
};

/// Hands out tasks to the worker pool. `next` must be safe to call from
/// several workers concurrently.
class TaskSource {
 public:
  virtual ~TaskSource() = default;
  /// Claims the next task into `task`; returns false when drained.
  virtual bool next(SweepTask& task) = 0;
};

/// Receives one RunRecord per claimed task, in completion order (use
/// `task.slot` to restore a deterministic order). Must be thread-safe.
class ResultCollector {
 public:
  virtual ~ResultCollector() = default;
  virtual void collect(const SweepTask& task, RunRecord record) = 0;
};

/// Drains `source` into `collector` on `threads` workers (0 = hardware
/// concurrency; <=1 runs inline on the calling thread). Each task's
/// scenario runs with RunContext{task.seed, task.run_index}; a throwing
/// run yields a record carrying the message in `error`. The seed and
/// run_index of the task are copied into the record verbatim.
void run_task_pool(TaskSource& source, ResultCollector& collector,
                   std::size_t threads);

/// Drains a prepared task list into `collector` through run_task_pool on
/// min(threads, tasks.size()) workers (0 = hardware concurrency).
void run_tasks(const std::vector<SweepTask>& tasks,
               ResultCollector& collector, std::size_t threads);

struct SweepOptions {
  /// Master seed of the sweep; per-run seeds derive from it.
  std::uint64_t base_seed = 1;
  /// Number of seeds (runs) per scenario.
  std::size_t num_seeds = 1;
  /// Worker threads; 0 = hardware concurrency. Runs never share state,
  /// so any value is safe.
  std::size_t threads = 0;
};

/// Per-run seed derivation: one splitmix64 round over the base seed at
/// gamma-stride `run_index` (the splitmix64 stream at position i).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::size_t run_index) noexcept;

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs `scenario` once per seed. The returned vector is indexed by
  /// run_index (= ascending derive_seed order of definition); a run that
  /// threw carries its message in `error` instead of metrics.
  [[nodiscard]] std::vector<RunRecord> run(const Scenario& scenario) const;

  /// Sweeps every scenario across the seeds on ONE worker pool: the
  /// global (scenario, run_index) work queue. Result r[s][i] is the
  /// record of scenarios[s] at run_index i — bit-identical to running
  /// each scenario serially. Null scenario pointers are not allowed.
  [[nodiscard]] std::vector<std::vector<RunRecord>> run_all(
      const std::vector<const Scenario*>& scenarios) const;

  [[nodiscard]] const SweepOptions& options() const noexcept {
    return options_;
  }

 private:
  SweepOptions options_;
};

}  // namespace findep::runtime
