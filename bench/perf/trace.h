// Host-time clock and the in-memory span recorder of the traced run.
//
// Spans are recorded only around calls the benchmark itself makes into
// each layer's public functions (instantiate_family, Scenario::run via
// the task pool, runtime::to_json, MetricsSink, and the probes); nothing
// inside src/ is instrumented. Spans are kept in memory and written as
// JSONL when the run ends, one object per line:
//
//   {"id": 7, "parent": 1, "name": "runtime.cell", "layer": "runtime",
//    "workload": "faults", "cell": "campaign/...", "seed": 123,
//    "start_ns": 1500, "end_ns": 98000, "sim_events": 4410,
//    "cache_hits": 0, "cache_misses": 0}
//
// Times are nanoseconds since the root span started. A span's self time
// is its duration minus the part of it its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace findep::perf {

// findep-lint: allow(wall-clock) -- the benchmark measures host time
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start,
                                            Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for the root
  std::string name;
  std::string layer;
  std::string cell;  // runtime.cell and runtime.wire spans only
  std::uint64_t seed = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// Counts taken at a runtime.cell boundary: simulator events the run
  /// executed and analyzer-cache lookups it made.
  std::uint64_t sim_events = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class Tracer {
 public:
  /// Opens the root `workload` span.
  explicit Tracer(std::string workload);

  /// Records a finished child of the root span; returns its id.
  std::uint64_t add(Span span);
  /// Closes the root span (idempotent: the last call wins).
  void close_root();

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Summed self time, in seconds, of the spans called `name`.
  [[nodiscard]] double self_seconds(const std::string& name) const;

  void write_jsonl(std::ostream& out) const;

 private:
  std::string workload_;
  std::vector<Span> spans_;  // spans_[0] is the root
};

}  // namespace findep::perf
