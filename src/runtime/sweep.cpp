#include "runtime/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "support/assert.h"
#include "support/rng.h"

namespace findep::runtime {

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::size_t run_index) noexcept {
  // splitmix64's state after i steps is base + i*gamma; mixing it yields
  // the stream's i-th output without iterating.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return support::mix64(base_seed + kGamma * static_cast<std::uint64_t>(
                                                 run_index + 1));
}

namespace {

RunRecord execute_task(const SweepTask& task) {
  RunRecord record;
  record.seed = task.seed;
  record.run_index = task.run_index;
  try {
    record.metrics =
        task.scenario->run(RunContext{task.seed, task.run_index});
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  return record;
}

/// The one TaskSource over a prepared task list: tasks claimed in list
/// order off one atomic index.
class TaskList final : public TaskSource {
 public:
  explicit TaskList(const std::vector<SweepTask>& tasks) : tasks_(tasks) {}

  bool next(SweepTask& task) override {
    const std::size_t i = next_.fetch_add(1);
    if (i >= tasks_.size()) return false;
    task = tasks_[i];
    return true;
  }

 private:
  const std::vector<SweepTask>& tasks_;
  std::atomic<std::size_t> next_{0};
};

/// The in-process collector: each record lands in its own (scenario,
/// run_index) slot, so no synchronization beyond the slot math is needed.
class SlottedCollector final : public ResultCollector {
 public:
  SlottedCollector(std::vector<std::vector<RunRecord>>& records,
                   std::size_t num_seeds)
      : records_(records), num_seeds_(num_seeds) {}

  void collect(const SweepTask& task, RunRecord record) override {
    records_[task.slot / num_seeds_][task.slot % num_seeds_] =
        std::move(record);
  }

 private:
  std::vector<std::vector<RunRecord>>& records_;
  std::size_t num_seeds_;
};

}  // namespace

void run_task_pool(TaskSource& source, ResultCollector& collector,
                   std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads <= 1) {
    SweepTask task;
    while (source.next(task)) collector.collect(task, execute_task(task));
    return;
  }

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      SweepTask task;
      while (source.next(task)) collector.collect(task, execute_task(task));
    });
  }
  for (std::thread& worker : pool) worker.join();
}

void run_tasks(const std::vector<SweepTask>& tasks,
               ResultCollector& collector, std::size_t threads) {
  if (tasks.empty()) return;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  TaskList source(tasks);
  run_task_pool(source, collector, std::min(threads, tasks.size()));
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  FINDEP_REQUIRE(options_.num_seeds > 0);
}

std::vector<RunRecord> SweepRunner::run(const Scenario& scenario) const {
  return run_all({&scenario}).front();
}

std::vector<std::vector<RunRecord>> SweepRunner::run_all(
    const std::vector<const Scenario*>& scenarios) const {
  const std::size_t n = options_.num_seeds;
  std::vector<std::vector<RunRecord>> records(scenarios.size(),
                                              std::vector<RunRecord>(n));
  // Scenario-major, so a serial drain runs each scenario's seeds in turn.
  std::vector<SweepTask> tasks;
  tasks.reserve(scenarios.size() * n);
  for (const Scenario* scenario : scenarios) {
    FINDEP_REQUIRE(scenario != nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      // Aliasing shared_ptr: the caller owns the scenario for the whole
      // sweep, so the task needs no ownership of its own.
      tasks.push_back(SweepTask{
          std::shared_ptr<const Scenario>(std::shared_ptr<const Scenario>{},
                                          scenario),
          derive_seed(options_.base_seed, i), i, tasks.size()});
    }
  }
  SlottedCollector collector(records, n);
  run_tasks(tasks, collector, options_.threads);
  return records;
}

}  // namespace findep::runtime
