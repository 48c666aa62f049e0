// findep-lint: a determinism/safety static-analysis pass over the repo's
// own sources.
//
// The repo's load-bearing guarantee — sweeps that render byte-identically
// across serial, thread-pool and distributed execution, and an event
// engine whose execution order is pinned — is enforced dynamically by CI
// `cmp` runs. Those tell you *that* determinism broke, never *which line*
// broke it. This pass rejects the known sources of nondeterminism (and a
// couple of serialization hazards) at review time, as named rules with
// file:line diagnostics, so the discipline is a checked property instead
// of a convention.
//
// Rules (see rule_catalog() for the one-line versions):
//
//   wall-clock          chrono clocks / time() / gettimeofday outside an
//                       explicit file allowlist. Simulated time comes from
//                       sim::Simulator; wall time in a scenario makes its
//                       metrics run-to-run unstable.
//   ambient-rng         rand(), std::random_device, default-constructed
//                       std engines. All randomness must flow from
//                       scenario/replica seeds or merges stop being
//                       byte-identical.
//   unordered-iteration range-for / .begin() iteration over identifiers
//                       declared as unordered_{map,set,...}. Iteration
//                       order is address-dependent — the #1 way to
//                       silently break merge byte-identity. Order-
//                       insensitive folds must say so in a suppression.
//   pointer-keyed-container
//                       map/set keyed on a raw pointer type: ordering and
//                       hashing follow allocation addresses, which differ
//                       per run.
//   uninit-member       scalar members of wire-message structs (bft
//                       messages, net envelope bodies) without a default
//                       initializer: a serialization round-trip reads
//                       indeterminate bytes.
//
// Meta-rules keep the suppression mechanism honest:
//
//   bad-suppression     an allow() comment missing its `-- justification`
//                       or naming no known rule.
//   unused-suppression  an allow() comment that suppressed nothing — a
//                       stale exemption that would mask a future
//                       violation.
//
// Suppression syntax, on the offending line or the line directly above:
//
//   // findep-lint: allow(rule-name) -- one-line justification
//   // findep-lint: allow(rule-a, rule-b) -- shared justification
//
// The tokenizer is hand-rolled over the raw bytes (comments, string
// literals and preprocessor lines handled; no libclang, no new
// dependencies — the same spirit as runtime/task.cpp's mini JSON reader).
// It is a lexer, not a parser: the rules are heuristics tuned to this
// repo's idiom, and the suppression mechanism is the escape hatch for the
// places where a heuristic over-fires on legitimate code.
#pragma once

#include <string>
#include <vector>

namespace findep::lint {

struct Finding {
  std::string file;   // path as given to the scan
  int line = 0;       // 1-based
  std::string rule;   // e.g. "unordered-iteration"
  std::string message;
};

struct RuleInfo {
  std::string name;
  std::string summary;
};

struct Options {
  /// Files in which the wall-clock rule is off entirely (path suffix
  /// match). The default covers the measured-timing family; every other
  /// file must route time through the simulator.
  std::vector<std::string> wall_clock_allowlist = {
      "src/scenarios/micro.cpp",
  };

  /// Files whose struct/class scalar members must carry default
  /// initializers (path suffix match): the wire-message headers, where an
  /// uninitialized member is a serialization round-trip hazard.
  std::vector<std::string> uninit_member_files = {
      "src/bft/messages.h",
      "src/net/envelope.h",
      "src/attest/wire.h",
  };

  /// Type aliases treated as scalars by uninit-member, on top of the
  /// builtin integer/float types. The repo's wire headers use these for
  /// ids and sequence numbers.
  std::vector<std::string> scalar_aliases = {
      "ReplicaId", "View", "SeqNum", "NodeId", "MinerId", "PoolId",
  };

  /// Path substrings to skip while scanning (fixture files contain
  /// deliberate violations).
  std::vector<std::string> exclude_substrings = {
      "lint_fixtures",
  };
};

/// The rule catalog, in stable order (for --list-rules and the docs).
[[nodiscard]] std::vector<RuleInfo> rule_catalog();

/// Expands files/directories into a sorted list of C++ sources
/// (.h/.hpp/.cpp/.cc), applying Options::exclude_substrings. Throws
/// std::runtime_error on a nonexistent path.
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths, const Options& options);

/// Runs every rule over `files` (two passes: declaration harvest, then
/// rule matching). Findings come back sorted by (file, line, rule).
/// Unreadable files produce a finding under the pseudo-rule "io-error".
[[nodiscard]] std::vector<Finding> run_lint(
    const std::vector<std::string>& files, const Options& options);

/// Formats one finding as "file:line: error: [rule] message".
[[nodiscard]] std::string format_finding(const Finding& finding);

}  // namespace findep::lint
