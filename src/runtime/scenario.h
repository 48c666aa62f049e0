// The Scenario value: one experiment instance, a name plus a bound run
// function, run per seed.
//
// A scenario is a *pure function of the run context*: its run function
// builds its own Simulator, SimNetwork, Rng and protocol objects from
// `ctx.seed`, executes, and returns metrics. Nothing is shared between
// runs, which is what lets SweepRunner execute seeds on a thread pool
// while keeping each run bit-identical to its serial execution (the
// seed-determinism contract, documented in DESIGN.md). Families build
// scenarios in their registry factory (runtime/registry.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/metrics.h"

namespace findep::runtime {

/// Everything a run may depend on.
struct RunContext {
  /// Per-run seed (already derived from the sweep's base seed).
  std::uint64_t seed = 1;
  /// Position of this run in its sweep, 0-based.
  std::size_t run_index = 0;
};

/// A concrete value type; families bind run functions instead of
/// deriving from it. It is not `final` only because
/// scenarios::MicroScenario adds a constructor (bench/perf builds micro
/// scenarios directly).
class Scenario {
 public:
  /// Executes one seed. Must be thread-safe and deterministic: a pure
  /// function of `ctx`, owning all mutable state it touches.
  using RunFn = std::function<MetricRecord(const RunContext&)>;

  /// `name` is unique, by convention "<family>/<params>" (e.g.
  /// "bft_scaling/n=7"). Requires a non-empty `run`.
  Scenario(std::string name, RunFn run);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Table-grouping key: the name prefix before the first '/'. Scenarios
  /// of one family must emit the same metric names.
  [[nodiscard]] std::string family() const;

  [[nodiscard]] MetricRecord run(const RunContext& ctx) const {
    return run_(ctx);
  }

 private:
  std::string name_;
  RunFn run_;
};

}  // namespace findep::runtime
