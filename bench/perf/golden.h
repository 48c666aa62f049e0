// The reference records every run is checked against: the repo's golden
// catalog (ci/golden_catalog.json.gz, decompressed), which is the
// MetricsSink JSON of every deterministic non-protocol cell at
// `--seed 1 --seeds 2`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "runtime/metrics.h"

namespace findep::perf {

class Golden {
 public:
  /// Parses a MetricsSink JSON rendering. Throws std::runtime_error when
  /// the file cannot be read or holds no records.
  [[nodiscard]] static Golden load(const std::string& path);

  /// The reference record of (scenario, seed), or nullptr when the golden
  /// does not cover it.
  [[nodiscard]] const runtime::MetricRecord* find(const std::string& scenario,
                                                  std::uint64_t seed) const;
  /// The reference record of `scenario` at any seed, or nullptr.
  [[nodiscard]] const runtime::MetricRecord* find_any(
      const std::string& scenario) const;

  /// Empty when `actual` matches `expected` exactly (same metrics in the
  /// same order, same 17-digit renderings), else the first difference.
  [[nodiscard]] static std::string diff(
      const runtime::MetricRecord& expected,
      const runtime::MetricRecord& actual);

 private:
  std::map<std::pair<std::string, std::uint64_t>, runtime::MetricRecord>
      records_;
};

}  // namespace findep::perf
