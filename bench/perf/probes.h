// Per-layer probes of the traced run: short timed loops over one public
// operation of a layer, shaped like what the workloads do with it (the
// existing `micro` scenario ops plus a few the catalog leans on that it
// lacks: a 10k-node send, 64-byte hashes, HMAC, batch and view-change
// digests, one double-spend Monte-Carlo trial).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace findep::perf {

class Tracer;

/// Runs each probe once, recording a `probe.<metric>` span per probe when
/// `tracer` is non-null. Returns (metric name, nanoseconds per op).
[[nodiscard]] std::vector<std::pair<std::string, double>> run_probes(
    std::uint64_t seed, Tracer* tracer);

}  // namespace findep::perf
