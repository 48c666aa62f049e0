// runtime::WorkerPool: the ordered-completion contract under randomized
// load, differentially against a serial reference model.
//
// The reference exploits the pool's central guarantee: within a lane,
// completions fire in submission order and an item whose stale verdict
// is fixed at submission is dropped iff that verdict is true — both
// independent of the worker count and of how task costs interleave. So
// the expected completion sequence of a randomized schedule can be
// computed by a trivial serial replay, and the same schedule must
// reproduce it at 1, 2 and 8 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/workers.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace findep::runtime {
namespace {

struct Completion {
  std::uint64_t id = 0;
  bool dropped = false;

  bool operator==(const Completion&) const = default;
};

/// One randomized task: lane, modeled cost, submit time, and a stale
/// verdict fixed at generation time (so the expected drop outcome does
/// not depend on dequeue timing).
struct PlannedTask {
  std::uint64_t id = 0;
  TaskPriority priority = TaskPriority::kCritical;
  double submit_at = 0.0;
  double cost = 0.0;
  bool stale = false;
};

std::vector<PlannedTask> random_schedule(std::uint64_t seed,
                                         std::size_t count) {
  support::Rng rng(seed);
  std::vector<PlannedTask> tasks;
  tasks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    PlannedTask t;
    t.id = i;
    t.priority = rng.uniform() < 0.4 ? TaskPriority::kSpeculative
                                     : TaskPriority::kCritical;
    t.submit_at = rng.uniform() * 1e-2;
    // Include zero-cost tasks: completions must still be well-ordered
    // when several finish at the same instant.
    t.cost = rng.uniform() < 0.1 ? 0.0 : rng.uniform() * 1e-3;
    t.stale = rng.uniform() < 0.2;
    tasks.push_back(t);
  }
  return tasks;
}

/// The serial reference: per lane, submission order with the fixed stale
/// verdicts. (Submission order = submit_at order; ties resolved by id,
/// matching the generator which never produces duplicate times in
/// practice and the simulator's FIFO tie-break when it does.)
std::vector<std::vector<Completion>> reference_completions(
    std::vector<PlannedTask> tasks) {
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const PlannedTask& a, const PlannedTask& b) {
                     return a.submit_at < b.submit_at;
                   });
  std::vector<std::vector<Completion>> lanes(kPriorityLanes);
  for (const PlannedTask& t : tasks) {
    lanes[static_cast<std::size_t>(t.priority)].push_back(
        Completion{t.id, t.stale});
  }
  return lanes;
}

std::vector<std::vector<Completion>> run_pool(
    const std::vector<PlannedTask>& tasks, std::size_t workers) {
  sim::Simulator sim;
  std::vector<std::vector<Completion>> lanes(kPriorityLanes);
  WorkerPool<PlannedTask> pool(
      sim, workers, [](const PlannedTask& t) { return t.stale; },
      [&lanes](const PlannedTask& t, bool dropped) {
        lanes[static_cast<std::size_t>(t.priority)].push_back(
            Completion{t.id, dropped});
      });
  for (const PlannedTask& t : tasks) {
    // The simulator's inline callbacks carry at most 48 bytes, so the
    // task rides along by index.
    sim.schedule_at(t.submit_at, [&pool, &tasks, i = t.id] {
      pool.submit(tasks[i].priority, tasks[i].cost, tasks[i]);
    });
  }
  sim.run();
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.stats().submitted, tasks.size());
  EXPECT_EQ(pool.stats().completed + pool.stats().dropped_stale,
            tasks.size());
  return lanes;
}

TEST(WorkerPool, RandomizedDifferentialAgainstSerialReference) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const std::vector<PlannedTask> tasks = random_schedule(seed, 200);
    const auto expected = reference_completions(tasks);
    for (const std::size_t workers : {1, 2, 8}) {
      const auto actual = run_pool(tasks, workers);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t lane = 0; lane < expected.size(); ++lane) {
        EXPECT_EQ(actual[lane], expected[lane])
            << "lane " << lane << " diverged from the serial reference "
            << "at seed " << seed << " with " << workers << " workers";
      }
    }
  }
}

/// A stale rule for pools whose items never go stale.
bool never_stale(const int&) { return false; }

TEST(WorkerPool, CompletionsReenterInSubmissionOrderWithinLane) {
  // Two workers, one expensive item then one cheap one in the same lane:
  // the cheap item's *work* finishes first, but its completion is gated
  // behind the expensive predecessor, and fires at the predecessor's
  // finish time.
  sim::Simulator sim;
  std::vector<std::pair<int, double>> order;
  WorkerPool<int> pool(sim, 2, never_stale, [&](const int& item, bool) {
    order.emplace_back(item, sim.now());
  });
  pool.submit(TaskPriority::kCritical, 1.0, 'A');
  pool.submit(TaskPriority::kCritical, 0.1, 'B');
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 'A');
  EXPECT_EQ(order[1].first, 'B');
  EXPECT_DOUBLE_EQ(order[0].second, 1.0);
  EXPECT_DOUBLE_EQ(order[1].second, 1.0);  // gated, not 0.1
}

TEST(WorkerPool, CriticalLaneDequeuesAheadOfSpeculative) {
  // Fill the single worker, queue speculative work first and critical
  // work second: the critical items must still all run first.
  sim::Simulator sim;
  std::vector<int> order;
  WorkerPool<int> pool(sim, 1, never_stale, [&order](const int& item, bool) {
    if (item >= 0) order.push_back(item);
  });
  pool.submit(TaskPriority::kCritical, 1.0, -1);  // the blocker
  for (int i = 0; i < 3; ++i) {
    pool.submit(TaskPriority::kSpeculative, 0.1, 100 + i);
  }
  for (int i = 0; i < 3; ++i) pool.submit(TaskPriority::kCritical, 0.1, i);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 101, 102}));
}

TEST(WorkerPool, StaleWorkIsDroppedAtDequeueWithoutWorkerTime) {
  // The victim goes stale while it waits behind the blocker; the drop
  // happens when a worker would pick it up, consumes no modeled time,
  // and still completes (flagged) in lane order.
  constexpr int kBlocker = 0;
  constexpr int kVictim = 1;
  sim::Simulator sim;
  bool stale = false;
  sim.schedule_at(0.5, [&stale] { stale = true; });
  double blocker_done = -1.0;
  double victim_done = -1.0;
  bool victim_dropped = false;
  WorkerPool<int> pool(
      sim, 1, [&stale](const int& item) { return item == kVictim && stale; },
      [&](const int& item, bool dropped) {
        if (item == kBlocker) {
          blocker_done = sim.now();
        } else {
          victim_done = sim.now();
          victim_dropped = dropped;
        }
      });
  pool.submit(TaskPriority::kCritical, 1.0, kBlocker);
  pool.submit(TaskPriority::kCritical, 0.25, kVictim);
  sim.run();
  EXPECT_DOUBLE_EQ(blocker_done, 1.0);
  EXPECT_TRUE(victim_dropped);
  EXPECT_DOUBLE_EQ(victim_done, 1.0);  // dropped at dequeue, not +0.25
  EXPECT_EQ(pool.stats().dropped_stale, 1u);
  EXPECT_DOUBLE_EQ(pool.stats().busy_seconds, 1.0);  // no victim time
}

TEST(WorkerPool, CompletionMaySubmitMoreWork) {
  // Re-entrant submission from a completion folds into the dispatch loop
  // instead of recursing.
  sim::Simulator sim;
  int chained = 0;
  WorkerPool<int>* self = nullptr;
  WorkerPool<int> pool(sim, 2, never_stale, [&](const int& item, bool) {
    if (item == 0) {
      self->submit(TaskPriority::kSpeculative, 0.1, 1);
    } else {
      ++chained;
    }
  });
  self = &pool;
  pool.submit(TaskPriority::kCritical, 0.1, 0);
  sim.run();
  EXPECT_EQ(chained, 1);
  EXPECT_EQ(pool.stats().completed, 2u);
}

TEST(WorkerPool, BusySecondsAccountPerWorkerOccupancy) {
  sim::Simulator sim;
  WorkerPool<int> pool(sim, 4, never_stale, [](const int&, bool) {});
  for (int i = 0; i < 8; ++i) pool.submit(TaskPriority::kCritical, 0.5, i);
  sim.run();
  EXPECT_DOUBLE_EQ(pool.stats().busy_seconds, 4.0);
  // 8 items of 0.5 s over 4 workers: two full waves, makespan 1.0 s.
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

}  // namespace
}  // namespace findep::runtime
