// Calendar-queue engine edges: slot-generation safety across recycling,
// mass same-timestamp FIFO through bucket rebuilds, year-wrapped
// far-future inserts, prompt destruction of cancelled closures,
// run()/run_until() interleaving, and a randomized differential check
// against a naive reference queue (same total order (at, seq),
// brute-force scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::sim {
namespace {

TEST(SimEngine, TenThousandSameTimestampFifo) {
  // One absolute bucket absorbs 10k ties: tail-append must keep the
  // schedule order through every growth rebuild in between.
  Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.run(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "tie order broke";
  }
}

TEST(SimEngine, RecycledSlotRejectsStaleId) {
  // Cancelling frees the slot; the very next schedule reuses it. The
  // stale id carries the old generation and must not touch the new
  // event — O(1) cancel safety depends on the generation tag.
  Simulator sim;
  bool new_ran = false;
  const EventId stale = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  const EventId fresh = sim.schedule_at(1.0, [&] { new_ran = true; });
  EXPECT_FALSE(sim.cancel(stale));  // dead generation
  EXPECT_NE(stale, fresh);
  sim.run();
  EXPECT_TRUE(new_ran);
}

TEST(SimEngine, CancelDestroysCapturedStateImmediately) {
  // The tombstone pathology this engine removes: a cancelled closure's
  // captures must die at cancel() — not at the eventual pop, and not at
  // simulator destruction.
  Simulator sim;
  const auto state = std::make_shared<int>(7);
  EXPECT_EQ(state.use_count(), 1);
  const EventId id = sim.schedule_at(1.0, [state] { (void)*state; });
  EXPECT_EQ(state.use_count(), 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(state.use_count(), 1) << "cancelled capture kept alive";
}

TEST(SimEngine, ExecutionDestroysCapturedStateAfterTheCall) {
  Simulator sim;
  const auto state = std::make_shared<int>(0);
  sim.schedule_at(1.0, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 2);
  sim.run();
  EXPECT_EQ(*state, 1);
  EXPECT_EQ(state.use_count(), 1) << "executed capture kept alive";
}

TEST(SimEngine, CancelledFarFutureEventReleasesSlotImmediately) {
  // Far-future events link into the year-wrapped ring like any other, so
  // cancelling one is full O(1) pointer surgery: slot recycled and the
  // closure (with its captures) destroyed on the spot.
  Simulator sim;
  const auto state = std::make_shared<int>(0);
  // Dense near-term events narrow the bucket width so the far event
  // lands many ring laps ahead of the cursor.
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(1.0 + i * 1e-6, [] {});
  }
  const EventId far = sim.schedule_at(1e9, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 2);
  EXPECT_TRUE(sim.cancel(far));
  EXPECT_EQ(state.use_count(), 1) << "far-future capture kept alive";
  EXPECT_EQ(sim.run(), 256u);  // the cancelled event never executes
  EXPECT_EQ(*state, 0);
}

TEST(SimEngine, YearWrapInterleavesFarInsertsWhileDraining) {
  // The insert-while-draining workload the year-wrapped layout exists
  // for: every pop schedules a successor far beyond the calendar window.
  // Each insert must stay O(1) (no parking structure) and the drain must
  // still execute strictly in (at, seq) order across many ring laps.
  Simulator sim;
  std::vector<double> fired;
  // Narrow the width with a dense near-term burst.
  for (int i = 0; i < 512; ++i) {
    sim.schedule_at(1.0 + i * 1e-6, [] {});
  }
  int hops = 0;
  std::function<void()> rearm = [&] {
    fired.push_back(sim.now());
    if (++hops < 32) {
      sim.schedule_after(1e7 + hops, [&] { rearm(); });
    }
  };
  sim.schedule_after(1e7, [&] { rearm(); });
  sim.run();
  ASSERT_EQ(fired.size(), 32u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.executed_count(), 512u + 32u);
}

TEST(SimEngine, ReentrantScheduleAtNowRunsAfterQueuedTies) {
  // schedule_at(now()) from inside a callback is legal and must sort
  // after every already-queued event at the same timestamp (FIFO by
  // schedule order), even though the executing event's slot was just
  // recycled.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] {
    order.push_back(0);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(2.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimEngine, RunBudgetInterleavesWithRunUntil) {
  // run(max_events) and run_until(deadline) share the cursor state;
  // alternating them must neither skip nor double-run events.
  Simulator sim;
  std::vector<double> fired;
  for (int i = 1; i <= 8; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] {
      fired.push_back(sim.now());
    });
  }
  EXPECT_EQ(sim.run(3), 3u);              // 1, 2, 3
  EXPECT_EQ(sim.run_until(5.5), 2u);      // 4, 5
  EXPECT_EQ(sim.run(1), 1u);              // 6
  EXPECT_EQ(sim.run_until(100.0), 2u);    // 7, 8
  EXPECT_EQ(fired,
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimEngine, DifferentialAgainstNaiveReferenceQueue) {
  // 4k random schedule/cancel ops against a brute-force reference with
  // the same contract (total order by (at, seq), FIFO ties, O(n) scan):
  // the execution sequences must match exactly, across bucket growth,
  // re-width rebuilds and year-wrapped far-future laps.
  struct Ref {
    double at;
    std::uint64_t seq;
    int tag;
  };
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    Simulator sim;
    support::Rng rng(seed);
    std::vector<Ref> ref;
    std::vector<EventId> ids;
    std::vector<std::uint64_t> ref_seqs;
    std::vector<int> got;
    std::vector<int> want;
    std::uint64_t next_seq = 0;
    int next_tag = 0;

    const auto ref_pop_min = [&]() -> std::size_t {
      std::size_t best = 0;
      for (std::size_t i = 1; i < ref.size(); ++i) {
        if (ref[i].at < ref[best].at ||
            (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq)) {
          best = i;
        }
      }
      return best;
    };

    for (int op = 0; op < 4096; ++op) {
      const double r = rng.uniform(0.0, 1.0);
      if (r < 0.55 || ref.empty()) {
        // Mixed horizon: mostly near-term, a tail of far-future events
        // that lands several ring laps beyond the cursor.
        const double horizon = rng.uniform(0.0, 1.0) < 0.9 ? 1.0 : 1e6;
        const double at = sim.now() + rng.uniform(0.0, horizon);
        const int tag = next_tag++;
        ids.push_back(sim.schedule_at(at, [&got, tag] {
          got.push_back(tag);
        }));
        ref.push_back(Ref{at, next_seq, tag});
        ref_seqs.push_back(next_seq);
        ++next_seq;
      } else if (r < 0.8) {
        // Cancel a random tracked id (possibly already fired/cancelled).
        const std::size_t pick =
            static_cast<std::size_t>(rng.below(ids.size()));
        const bool cancelled = sim.cancel(ids[pick]);
        bool ref_live = false;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (ref[i].seq == ref_seqs[pick]) {
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
            ref_live = true;
            break;
          }
        }
        ASSERT_EQ(cancelled, ref_live) << "cancel liveness diverged";
      } else {
        const std::size_t i = ref_pop_min();
        want.push_back(ref[i].tag);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        ASSERT_EQ(sim.run(1), 1u);
      }
    }
    while (!ref.empty()) {
      const std::size_t i = ref_pop_min();
      want.push_back(ref[i].tag);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    }
    sim.run();
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_FALSE(sim.has_pending());
  }
}

TEST(SimEngine, StatsExposeCalendarGeometry) {
  Simulator sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(1.0 + i * 0.001, [] {});
  }
  const auto st = sim.engine_stats();
  EXPECT_GE(st.slab_slots, 1000u);
  EXPECT_GE(st.buckets, 16u);
  EXPECT_GT(st.bucket_width, 0.0);
  EXPECT_GE(st.rebuilds, 1u);  // growth from the 16-bucket seed
  sim.run();
  EXPECT_EQ(sim.executed_count(), 1000u);
}

TEST(SimTimer, ArmedUntilItFires) {
  Simulator sim;
  Timer timer(sim);
  EXPECT_FALSE(timer.armed());
  bool ran = false;
  bool armed_in_callback = true;
  timer.arm(1.0, [&] {
    ran = true;
    armed_in_callback = timer.armed();
  });
  EXPECT_TRUE(timer.armed());
  sim.run_until(0.5);
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(armed_in_callback);  // disarmed before the callback runs
  EXPECT_FALSE(timer.armed());
}

TEST(SimTimer, CancelBeforeTheDeadlineDropsTheEvent) {
  Simulator sim;
  Timer timer(sim);
  bool ran = false;
  timer.arm(1.0, [&] { ran = true; });
  sim.run_until(0.5);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_FALSE(sim.has_pending());
  sim.run();
  EXPECT_FALSE(ran);
  timer.cancel();  // a no-op once disarmed
  EXPECT_FALSE(timer.armed());
}

TEST(SimTimer, CallbackMayRearmItsOwnTimer) {
  Simulator sim;
  Timer timer(sim);
  std::vector<Time> fired;
  std::function<void()> tick = [&] {
    fired.push_back(sim.now());
    if (fired.size() < 3) timer.arm(1.0, tick);
  };
  timer.arm(1.0, tick);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{1.0, 2.0, 3.0}));
  EXPECT_FALSE(timer.armed());
}

TEST(SimTimer, ArmingAnArmedTimerThrows) {
  Simulator sim;
  Timer timer(sim);
  int runs = 0;
  timer.arm(1.0, [&] { ++runs; });
  EXPECT_THROW(timer.arm(2.0, [&] { runs += 10; }),
               support::ContractViolation);
  EXPECT_EQ(sim.pending_count(), 1u);  // the first arm is untouched
  sim.run();
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace findep::sim
