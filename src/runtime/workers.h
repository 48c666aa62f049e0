// A modeled multicore worker pool over the deterministic simulator.
//
// One pool stands for the cores of a single replica: items (messages
// awaiting signature verification, in practice) are submitted with a
// priority and a modeled CPU cost, occupy one of W simulated workers for
// exactly that long, and complete through the simulator clock. The pool
// is *modeled* compute, not OS threads — every state change happens
// inside simulator events, so a sweep over worker counts is
// bit-reproducible and the whole simulation stays a pure function of
// (program, seed) at any `--threads` setting of the sweep runner.
//
// The pool holds each submitted item from submit to completion, in one
// FIFO per lane, and takes its two rules over an item once, at
// construction: `stale` (may this item be shed?) and `done` (the item's
// completion). Submitting allocates nothing beyond the FIFO's own slot.
//
// Semantics (the contract the differential test in tests/test_workers.cpp
// pins against a serial reference):
//
//   - Two priority lanes: protocol-critical work always dequeues ahead
//     of speculative work, regardless of submission interleaving.
//   - Stale-drop on dequeue: an item the stale rule declares stale by the
//     time a worker would pick it up is dropped without consuming worker
//     time (dsnet's taskqueue shape: verification of a message from a
//     dead view is wasted work, shed at the latest possible moment).
//   - Ordered completion *per lane*: items re-enter the submitter through
//     `done` in submission order within their lane, no matter which
//     worker ran them or how their costs interleaved. (Cross-lane
//     reordering is the entire point of prioritization; within a lane,
//     the FIFO keeps the protocol's message-arrival determinism.) Dropped
//     items keep their place in the order too — they complete, flagged,
//     in sequence.
//   - Workers are picked lowest-index-first; dispatch is greedy. Both
//     choices are arbitrary but fixed, which is all determinism needs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "support/assert.h"

namespace findep::runtime {

/// Dequeue priority of a pool item. Lower value = served first.
enum class TaskPriority : std::uint8_t {
  kCritical = 0,     ///< protocol-critical: consensus and recovery traffic
  kSpeculative = 1,  ///< speculative: work the protocol can tolerate late
};
inline constexpr std::size_t kPriorityLanes = 2;

template <typename Item>
class WorkerPool {
 public:
  /// True when a queued item is no longer worth running (asked when a
  /// worker would pick it up, not at submission).
  using StaleRule = std::function<bool(const Item&)>;
  /// Called exactly once per submitted item, in lane submission order;
  /// `dropped` is true when the stale rule shed the item.
  using DoneRule = std::function<void(const Item&, bool dropped)>;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;      ///< ran to completion (not dropped)
    std::uint64_t dropped_stale = 0;  ///< shed by the stale rule
    /// Modeled worker-occupancy seconds summed over workers; divide by
    /// (workers * span) for utilization.
    double busy_seconds = 0.0;
  };

  /// `workers` >= 1 modeled cores on `sim`'s clock. `done` must be
  /// non-null.
  WorkerPool(sim::Simulator& sim, std::size_t workers, StaleRule stale,
             DoneRule done)
      : sim_(&sim),
        busy_(workers, false),
        idle_(workers),
        stale_(std::move(stale)),
        done_(std::move(done)) {
    FINDEP_REQUIRE_MSG(workers >= 1, "a pool needs at least one worker");
    FINDEP_REQUIRE(stale_ != nullptr && done_ != nullptr);
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `item`, costing `cost_seconds` of one worker's time. An
  /// item shed at once completes inside submit().
  void submit(TaskPriority priority, double cost_seconds, Item item) {
    FINDEP_REQUIRE(cost_seconds >= 0.0);
    const auto lane_index = static_cast<std::size_t>(priority);
    FINDEP_REQUIRE(lane_index < kPriorityLanes);
    ++stats_.submitted;
    lanes_[lane_index].slots.push_back(Slot{std::move(item), cost_seconds});
    pump();
  }

  [[nodiscard]] std::size_t workers() const noexcept { return busy_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Items queued behind the workers (submitted, not yet dispatched).
  [[nodiscard]] std::size_t queued() const noexcept {
    std::size_t count = 0;
    for (const Lane& lane : lanes_) count += lane.slots.size() - lane.started;
    return count;
  }
  /// Items dispatched (or dropped) whose completion has not fired yet.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    std::size_t count = 0;
    for (const Lane& lane : lanes_) count += lane.started;
    return count;
  }

 private:
  struct Slot {
    Item item;
    double cost = 0.0;
    bool finished = false;  ///< ran or was dropped; may complete
    bool dropped = false;
  };
  struct Lane {
    /// Every item of the lane from submit to completion, in submission
    /// order. Dispatch is lane-FIFO, so the first `started` slots are the
    /// dispatched (or dropped) ones, and the front gates every
    /// completion behind it.
    std::deque<Slot> slots;
    std::size_t started = 0;
    /// Items of this lane completed so far: the submission index of
    /// slots.front().
    std::uint64_t completed = 0;
  };

  /// Greedy dispatch: fill idle workers from the highest-priority lane
  /// with queued items until workers or items run out. Re-entrant calls
  /// (a completion submitting new work) fold into the outermost pump.
  void pump() {
    if (pumping_) return;
    pumping_ = true;
    for (;;) {
      // Highest-priority lane with queued items; drops do not need a
      // worker, so the scan runs even when every worker is busy.
      Lane* lane = nullptr;
      for (Lane& candidate : lanes_) {
        if (candidate.started < candidate.slots.size()) {
          lane = &candidate;
          break;
        }
      }
      if (lane == nullptr) break;

      Slot& slot = lane->slots[lane->started];
      if (stale_(slot.item)) {
        // Stale-drop on dequeue: no worker time, but the item still
        // completes in lane order (flagged).
        ++lane->started;
        ++stats_.dropped_stale;
        slot.finished = true;
        slot.dropped = true;
        flush(*lane);  // completions may submit; the loop re-scans
        continue;
      }

      if (idle_ == 0) break;
      const auto it = std::find(busy_.begin(), busy_.end(), false);
      FINDEP_ASSERT(it != busy_.end());
      const auto worker = static_cast<std::size_t>(it - busy_.begin());
      busy_[worker] = true;
      --idle_;
      stats_.busy_seconds += slot.cost;
      const std::uint64_t index = lane->completed + lane->started++;
      sim_->schedule_after(slot.cost, [this, worker, lane, index] {
        busy_[worker] = false;
        ++idle_;
        ++stats_.completed;
        lane->slots[index - lane->completed].finished = true;
        flush(*lane);
        pump();  // the freed worker can take the next queued item
      });
    }
    pumping_ = false;
  }

  /// Completes every finished item at the lane front, in order.
  void flush(Lane& lane) {
    while (!lane.slots.empty() && lane.slots.front().finished) {
      const Slot slot = std::move(lane.slots.front());
      lane.slots.pop_front();
      --lane.started;
      ++lane.completed;
      done_(slot.item, slot.dropped);
    }
  }

  sim::Simulator* sim_;
  std::vector<bool> busy_;  ///< per worker; lowest idle index dispatches
  std::size_t idle_ = 0;
  StaleRule stale_;
  DoneRule done_;
  Lane lanes_[kPriorityLanes];
  Stats stats_;
  bool pumping_ = false;
};

}  // namespace findep::runtime
