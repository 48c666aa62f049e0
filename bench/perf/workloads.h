// The five benchmark workloads and the partition of the deterministic
// catalog between them.
//
// Every cell (one grid point of one registered family) of every
// deterministic family belongs to exactly one workload; the measured
// `micro` family belongs to none. The workloads are chosen so that each
// stresses a different layer of findep (see README.md for the reasons),
// which is what lets one workload exercise an optimization while another
// bypasses it.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "runtime/scenario.h"

namespace findep::perf {

struct Workload {
  const char* name;
  /// One line: which layers the workload stresses.
  const char* why;
};

inline constexpr std::array<Workload, 5> kWorkloads = {{
    {"ordering",
     "fault-free PBFT/HotStuff steady path: SHA-256 digests and HMAC "
     "sign/verify on every message, O(n^2) fan-out, no worker pool"},
    {"multicore",
     "the same PBFT through the modeled worker pool and sign accumulator "
     "(the only workload where the pool does work)"},
    {"faults",
     "the same replication and crypto layers on the fault path: view "
     "changes with prepared batches, NEW-VIEW proofs, state transfer"},
    {"propagation",
     "event engine and SimNetwork delivery with tiny handlers and no "
     "SHA-256; the largest memory footprint"},
    {"montecarlo",
     "no simulator: Monte-Carlo loops and the diversity analyzer (the "
     "control: sim, net and crypto changes must not move it)"},
}};

[[nodiscard]] const Workload* find_workload(const std::string& name);

/// One catalog cell owned by a workload.
struct Cell {
  std::string family;  // registry family name
  runtime::ParamSet point;
  std::shared_ptr<const runtime::Scenario> scenario;
  std::string name;  // scenario->name()
  /// Per-family breakdown key of the trace: the family name, with
  /// campaign split by fault kind ("campaign.collude").
  std::string group;
};

/// The workload owning a cell of `family` at grid point `point`, or
/// nullptr when no workload claims it.
[[nodiscard]] const Workload* owner_of(const std::string& family,
                                       const runtime::ParamSet& point);

/// Instantiates every cell `workload` owns through the registry, in
/// catalog order (families by name, grids and points in order).
[[nodiscard]] std::vector<Cell> instantiate_workload(const Workload& workload);

/// Deterministic registered families with at least one cell no workload
/// owns (a family added to the catalog after the benchmark).
[[nodiscard]] std::vector<std::string> unassigned_families();

/// Seed-independent properties every record of `cell` must have. Returns
/// an empty string when they hold, else what broke.
[[nodiscard]] std::string check_invariants(const Cell& cell,
                                           const runtime::MetricRecord& m);

/// True for families whose Scenario::run ignores its RunContext: their
/// golden record holds at every seed.
[[nodiscard]] bool seed_free(const Cell& cell);

}  // namespace findep::perf
