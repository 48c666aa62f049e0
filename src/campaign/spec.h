// Declarative campaign specs.
//
// A campaign spec is a tiny axis-override file over the campaign grid —
// the declarative surface of the engine. Format (one axis per line,
// '#' comments, blank lines ignored):
//
//   # nightly resilience campaign
//   target = uniform, diverse, skewed
//   fault  = crash, partition, collude
//   rate   = 1.0, 0.5
//   n      = 7
//   seeds  = 3
//
// Axes omitted keep the registered campaign defaults. `seeds` is not a
// grid axis: it sets the per-cell seed count. Validation is strict and
// happens at parse time, before any cell runs: unknown axes, duplicate
// axis lines, duplicate values within an axis (two identical cells — an
// overlapping campaign is almost always a spec bug), unknown target/fault
// names, rates outside (0, 1] and n < 4 are all rejected with the
// offending line number.
//
// A parsed spec lowers to ordinary findep-bench flags (spec_arguments),
// so `findep-bench --spec FILE` and hand-written `--set` flags drive the
// identical expansion path (run_families_main), including `--emit-tasks`
// sharding. findep-bench puts the spec's flags before the command
// line's, so a later `--set` or `--seeds` on the command line wins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/param.h"

namespace findep::campaign {

struct CampaignSpec {
  /// Axis overrides in file order, CLI `--set` shaped: axis name and its
  /// value strings.
  std::vector<std::pair<std::string, std::vector<std::string>>> overrides;
  /// Per-cell seed count, when the spec pins one.
  std::optional<std::uint64_t> seeds;
};

/// Parses spec text. Throws std::invalid_argument with "line N" context
/// on any malformed or semantically invalid input (see header comment).
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& text);

/// Reads and parses a spec file. Throws std::runtime_error when the file
/// cannot be read; parse errors as parse_campaign_spec.
[[nodiscard]] CampaignSpec load_campaign_spec(const std::string& path);

/// The campaign grid with the spec's overrides applied — the cells this
/// spec expands to (cartesian product of the resulting axes).
[[nodiscard]] runtime::ParamGrid campaign_grid(const CampaignSpec& spec);

/// The spec as findep-bench flags: `--family campaign`, one
/// `--set axis=v1,v2` per spec line in file order, then `--seeds N` when
/// the spec sets a seed count.
[[nodiscard]] std::vector<std::string> spec_arguments(
    const CampaignSpec& spec);

}  // namespace findep::campaign
