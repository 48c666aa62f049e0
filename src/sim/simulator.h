// Deterministic discrete-event simulation engine.
//
// All findep protocol substrates (network, BFT, Nakamoto mining,
// attestation) execute on this engine: events are callbacks scheduled at
// simulated timestamps, and ties are broken by schedule order so a run is
// a pure function of (program, seed). Simulated time is in seconds.
//
// The implementation is a self-resizing *calendar queue* over a slab of
// generation-tagged event slots (see DESIGN.md, "The event engine"):
//
//   - every event links into the bucket ring modulo its size (the classic
//     year-wrapped layout): a far-future arrival costs the same O(1) as a
//     near-term one, and the pop scan simply skips heads whose absolute
//     bucket is still ahead of the cursor;
//   - event records are slab-allocated and recycled through a free list,
//     so steady-state scheduling performs no allocation at all. The slab
//     is split structure-of-arrays style: 32-byte key/link records that
//     inserts and cancels walk, and a parallel array of callbacks that
//     only the owning event ever touches;
//   - callbacks are `InlineCallback` (small-buffer-optimized), so typical
//     captures (network deliveries, protocol timers) never touch the
//     heap, and the templated schedule paths construct the closure
//     directly inside the event slot;
//   - `cancel` is O(1) pointer surgery keyed by a generation tag — no
//     hashing — and destroys the captured callback state immediately.
//
// The observable contract is unchanged from the binary-heap engine it
// replaced: same events, same order, bit-identical runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "support/assert.h"

namespace findep::sim {

/// Simulated time in seconds since simulation start.
using Time = double;

/// Identifies a scheduled event so it can be cancelled (e.g. timers).
/// Encodes (generation << 32 | slot), so a stale id — already fired,
/// already cancelled, or recycled — is recognized in O(1).
using EventId = std::uint64_t;

/// Total events executed by every Simulator this process has destroyed
/// (each simulator flushes its executed count once, at destruction).
/// bench/perf reads it around each pass as `sim.events`.
[[nodiscard]] std::uint64_t process_events_executed() noexcept;

/// Event-driven simulator with a monotone clock.
///
/// Invariants: `now()` never decreases; callbacks scheduled at equal times
/// run in schedule order (FIFO); a callback may schedule further events at
/// `now()` or later.
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `fn` to run at absolute time `at` (>= now()). Returns an id
  /// usable with `cancel`. The closure is constructed directly inside the
  /// event slot; nullable callables (e.g. std::function) must be
  /// non-null.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId schedule_at(Time at, F&& fn) {
    FINDEP_REQUIRE_MSG(at >= now_, "cannot schedule into the past");
    if constexpr (requires { fn == nullptr; }) {
      FINDEP_REQUIRE(fn != nullptr);
    }
    const std::uint32_t idx = acquire_slot();
    try {
      fns_[idx].emplace(std::forward<F>(fn));
    } catch (...) {
      release_slot(idx);
      throw;
    }
    return commit_schedule(idx, at);
  }
  /// Overload for a pre-built callback (and the nullptr contract check).
  EventId schedule_at(Time at, Callback fn);

  /// Schedules `fn` to run `delay` (>= 0) seconds from now.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId schedule_after(Time delay, F&& fn) {
    FINDEP_REQUIRE(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  EventId schedule_after(Time delay, Callback fn);

  /// Cancels a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed. O(1), and the cancelled
  /// callback (with everything it captured) is destroyed immediately.
  bool cancel(EventId id);

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] bool has_pending() const noexcept { return live_ != 0; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t executed_count() const noexcept {
    return executed_;
  }

  /// Runs the next pending event. Requires has_pending().
  void step();

  /// Runs events until the queue drains or `max_events` have executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs all events with time <= `deadline`, then advances the clock to
  /// exactly `deadline` (even if idle). Returns events executed.
  std::uint64_t run_until(Time deadline);

  /// Observability for tests and the design doc: calendar geometry and
  /// slab usage. Never needed to *use* the simulator.
  struct EngineStats {
    std::size_t slab_slots = 0;      ///< total slots ever allocated
    std::size_t free_slots = 0;      ///< slots on the free list
    std::size_t buckets = 0;         ///< current calendar size
    double bucket_width = 0.0;       ///< seconds per bucket
    std::uint64_t rebuilds = 0;      ///< calendar resize/re-width count
  };
  [[nodiscard]] EngineStats engine_stats() const noexcept;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Sorted-insert walk length that flags the bucket width as too coarse
  /// for the current event distribution.
  static constexpr std::size_t kWalkLimit = 32;
  enum SlotState : std::uint32_t {
    kFree,    ///< on the free list
    kBucket,  ///< linked into a calendar bucket (possibly laps ahead)
  };

  /// Key/link record of one event slot: exactly 32 bytes, two per cache
  /// line, so sorted-insert walks and cancel unlinks touch half the
  /// memory the combined record would. The callback lives in the
  /// parallel `fns_` array. `ring_state` packs the bucket index the slot
  /// is linked into (low bits) with its SlotState (high bits).
  struct alignas(32) Slot {
    Time at = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t gen = 1;  ///< bumped when the id dies (fire/cancel)
    std::uint32_t ring_state = 0;
  };
  static constexpr std::uint32_t kStateShift = 24;
  static constexpr std::uint32_t kRingMask = (1u << kStateShift) - 1;

  [[nodiscard]] static SlotState state_of(const Slot& s) noexcept {
    return static_cast<SlotState>(s.ring_state >> kStateShift);
  }
  [[nodiscard]] static std::uint32_t ring_of(const Slot& s) noexcept {
    return s.ring_state & kRingMask;
  }
  static void set_state(Slot& s, SlotState state,
                        std::uint32_t ring = 0) noexcept {
    s.ring_state = (static_cast<std::uint32_t>(state) << kStateShift) | ring;
  }

  [[nodiscard]] std::uint64_t bucket_of(Time at) const noexcept;
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = slab_[idx].next;
      return idx;
    }
    return grow_slab();
  }
  [[nodiscard]] std::uint32_t grow_slab();
  void release_slot(std::uint32_t idx) noexcept;
  /// Links a freshly filled slot (at set, callback emplaced) into the
  /// calendar, assigns its seq, and returns its EventId.
  EventId commit_schedule(std::uint32_t idx, Time at);
  void place(std::uint32_t idx);
  void link_sorted(std::uint32_t ring, std::uint32_t idx);
  void unlink(std::uint32_t ring, std::uint32_t idx) noexcept;
  /// Index of the earliest live event, advancing the cursor to its
  /// bucket. Requires has_pending(). Does not remove the event.
  [[nodiscard]] std::uint32_t find_next();
  /// Unlinks `idx` (a bucket head), retires its id and returns its
  /// callback; the slot is back on the free list when this returns.
  [[nodiscard]] InlineCallback extract(std::uint32_t idx) noexcept;
  void execute(std::uint32_t idx);
  void rebuild();
  void maybe_rebuild();

  /// Head and tail of one calendar bucket's sorted list, packed so every
  /// bucket touch (append needs the tail, pop the head) is one 8-byte
  /// load from a single cache line.
  struct BucketEnds {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::vector<Slot> slab_;
  std::vector<InlineCallback> fns_;  ///< parallel to slab_
  std::uint32_t free_head_ = kNil;
  std::vector<BucketEnds> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;        ///< 1/width_: bucket_of multiplies
  std::uint64_t cur_bucket_ = 0;  ///< absolute index of the scan cursor
  std::uint64_t mask_ = 0;        ///< bucket count - 1 (power of two)
  std::size_t live_ = 0;          ///< schedulable (non-cancelled) events
  std::size_t grow_at_ = 0;       ///< live_ level that triggers a grow
  bool rebuild_pending_ = false;  ///< a sorted insert walked too far
  std::uint64_t scan_debt_ = 0;   ///< empty buckets scanned since rebuild
  std::uint64_t rebuilds_ = 0;
  std::uint64_t last_rebuild_seq_ = 0;  ///< rate-limits re-width rebuilds

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// A one-shot timer that tracks its own pending event, so an owner never
/// holds a raw EventId. It reads as disarmed before `fn` runs, so a
/// callback may re-arm its own timer. Not copyable: the scheduled
/// closure points back at the timer.
class Timer {
 public:
  explicit Timer(Simulator& sim) noexcept : sim_(&sim) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Schedules `fn` to run `delay` (>= 0) seconds from now. Requires
  /// !armed().
  template <typename F>
  void arm(Time delay, F&& fn) {
    FINDEP_REQUIRE_MSG(!armed(), "timer already armed");
    id_ = sim_->schedule_after(
        delay, [this, fn = std::forward<F>(fn)]() mutable {
          id_.reset();
          fn();
        });
  }
  /// Cancels the pending event; a no-op when disarmed.
  void cancel() {
    if (id_.has_value()) {
      sim_->cancel(*id_);
      id_.reset();
    }
  }
  [[nodiscard]] bool armed() const noexcept { return id_.has_value(); }

 private:
  Simulator* sim_;
  std::optional<EventId> id_;
};

// ——— Hot-path definitions ———
//
// The schedule/cancel fast path lives in the header so it compiles
// straight into the caller (the templated schedule_at already does):
// steady-state scheduling is a handful of inlined loads and stores, no
// cross-TU call. The cold machinery (cursor scans, far-future jumps,
// rebuilds) stays in simulator.cpp.

inline std::uint64_t Simulator::bucket_of(Time at) const noexcept {
  // Multiplying by the cached reciprocal is deterministic too (IEEE-754
  // is exact about which double it yields) — it only has to be
  // *consistent* within a run, since bucket boundaries affect structure,
  // never event order.
  const double q = at * inv_width_;
  // Cap so enormous horizons (or +inf) stay representable: everything
  // past the cap collapses into one final — still sorted — bucket.
  constexpr double kCap = 4.0e18;
  if (!(q < kCap)) return static_cast<std::uint64_t>(kCap);
  return static_cast<std::uint64_t>(q);
}

inline void Simulator::release_slot(std::uint32_t idx) noexcept {
  Slot& s = slab_[idx];
  fns_[idx].reset();
  set_state(s, kFree);
  s.next = free_head_;
  free_head_ = idx;
}

inline void Simulator::link_sorted(std::uint32_t ring, std::uint32_t idx) {
  Slot& s = slab_[idx];
  set_state(s, kBucket, ring);
  BucketEnds& ends = buckets_[ring];
  if (ends.tail == kNil) {
    s.prev = s.next = kNil;
    ends.head = ends.tail = idx;
    return;
  }
  Slot& t = slab_[ends.tail];
  if (t.at < s.at || (t.at == s.at && t.seq < s.seq)) {
    // Fast path: FIFO workloads (equal timestamps always carry a larger
    // seq) and rebuild re-placement (sorted ascending) append at the
    // tail.
    s.prev = ends.tail;
    s.next = kNil;
    t.next = idx;
    ends.tail = idx;
    return;
  }
  std::uint32_t cur = ends.head;
  std::size_t walked = 0;
  for (;;) {
    const Slot& c = slab_[cur];
    if (s.at < c.at || (s.at == c.at && s.seq < c.seq)) break;
    FINDEP_ASSERT(c.next != kNil);  // the tail compare guarantees a stop
    cur = c.next;
    ++walked;
  }
  Slot& c = slab_[cur];
  s.next = cur;
  s.prev = c.prev;
  c.prev = idx;
  if (s.prev == kNil) {
    ends.head = idx;
  } else {
    slab_[s.prev].next = idx;
  }
  if (walked > kWalkLimit) rebuild_pending_ = true;
}

inline void Simulator::unlink(std::uint32_t ring, std::uint32_t idx) noexcept {
  const Slot& s = slab_[idx];
  BucketEnds& ends = buckets_[ring];
  // Written as address selection (not control flow) so the compiler can
  // emit conditional moves: an event's list position is data-random, and
  // a mispredicted branch here costs more than both unconditional
  // stores. The untaken addresses are computed but never dereferenced.
  std::uint32_t* const prev_next =
      s.prev != kNil ? &slab_[s.prev].next : &ends.head;
  std::uint32_t* const next_prev =
      s.next != kNil ? &slab_[s.next].prev : &ends.tail;
  *prev_next = s.next;
  *next_prev = s.prev;
}

inline void Simulator::place(std::uint32_t idx) {
  Slot& s = slab_[idx];
  std::uint64_t b = bucket_of(s.at);
  if (b < cur_bucket_) {
    // Defensive: the cursor tracks bucket_of(now_) between public calls
    // (run_until rewinds after a probe), so an insert at >= now_ cannot
    // land behind it. If it ever does, clamping into the cursor slot is
    // still correct — the sorted link keeps it ahead of everything later
    // and the due check (absolute bucket <= cursor) fires on the next
    // visit.
    b = cur_bucket_;
  }
  // Year-wrapped layout: the link is modulo the ring no matter how far
  // ahead `b` lies. A head whose absolute bucket is still ahead of the
  // cursor is simply skipped by the pop scan, so a far-future insert
  // costs the same O(1) as a near-term one.
  link_sorted(static_cast<std::uint32_t>(b & mask_), idx);
}

inline EventId Simulator::commit_schedule(std::uint32_t idx, Time at) {
  Slot& s = slab_[idx];
  s.at = at;
  s.seq = next_seq_++;
  const EventId id = (static_cast<EventId>(s.gen) << 32) | idx;
  place(idx);
  ++live_;
  // One predictable branch on the hot path; the full (rate-limited)
  // policy runs only when growth or a re-width request makes it live.
  if (live_ > grow_at_ || rebuild_pending_) maybe_rebuild();
  return id;
}

inline bool Simulator::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slab_.size()) return false;
  Slot& s = slab_[idx];
  if (s.gen != gen) return false;  // already fired, cancelled, or recycled
  if (state_of(s) != kBucket) {
    return false;  // a free slot whose id was never issued
  }
  unlink(ring_of(s), idx);
  ++s.gen;
  release_slot(idx);  // destroys the captured closure state now
  --live_;
  return true;
}

}  // namespace findep::sim
