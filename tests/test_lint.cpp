// Golden-fixture tests for findep-lint (tools/lint). Each rule gets a
// fixture file full of deliberate violations plus adjacent clean idioms;
// the expectations pin exact (line, rule) pairs, so both a rule that
// stops firing (a lost in-tree protection) and one that starts
// over-firing (a new false positive) fail here. The fixture directory is
// excluded from the lint_tree gate by Options::exclude_substrings.
#include "lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using findep::lint::Finding;
using findep::lint::Options;
using findep::lint::run_lint;

std::string fixture(const std::string& name) {
  return std::string(FINDEP_LINT_FIXTURE_DIR) + "/" + name;
}

/// The (line, rule) pairs of every finding in `file`, sorted.
std::vector<std::pair<int, std::string>> findings_in(
    const std::vector<Finding>& findings, const std::string& file) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) {
    if (f.file.find(file) != std::string::npos) {
      out.emplace_back(f.line, f.rule);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Options fixture_options() {
  Options options;
  options.exclude_substrings.clear();  // we scan fixtures on purpose
  return options;
}

TEST(LintWallClock, FlagsEveryClockReadButNotMemberCalls) {
  const auto findings =
      run_lint({fixture("wall_clock.cpp")}, fixture_options());
  EXPECT_EQ(findings_in(findings, "wall_clock.cpp"),
            (std::vector<std::pair<int, std::string>>{
                {15, "wall-clock"},   // steady_clock
                {16, "wall-clock"},   // system_clock
                {17, "wall-clock"},   // high_resolution_clock
                {18, "wall-clock"},   // std::time(nullptr)
            }));
  // The `sim.time()` member call and the suppressed accessor declaration
  // produce nothing — 4 findings total.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintWallClock, AllowlistSilencesTheWholeFile) {
  Options options = fixture_options();
  options.wall_clock_allowlist.push_back("wall_clock_allowed.cpp");
  const auto findings =
      run_lint({fixture("wall_clock_allowed.cpp")}, options);
  EXPECT_TRUE(findings.empty())
      << "allowlisted file still produced findings";

  // Without the allowlist entry the same file trips the rule — the
  // allowlist is doing the work, not the rule going blind.
  const auto unlisted =
      run_lint({fixture("wall_clock_allowed.cpp")}, fixture_options());
  EXPECT_EQ(unlisted.size(), 2u);
  for (const Finding& f : unlisted) EXPECT_EQ(f.rule, "wall-clock");
}

TEST(LintAmbientRng, FlagsGlobalRngAndDefaultEnginesOnly) {
  const auto findings =
      run_lint({fixture("ambient_rng.cpp")}, fixture_options());
  EXPECT_EQ(findings_in(findings, "ambient_rng.cpp"),
            (std::vector<std::pair<int, std::string>>{
                {8, "ambient-rng"},   // rand()
                {9, "ambient-rng"},   // std::random_device
                {10, "ambient-rng"},  // default-constructed mt19937
                {11, "ambient-rng"},  // std::mt19937() temporary
            }));
  // Seeded engines and reference parameters are the sanctioned idiom.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintUnorderedIteration, ResolvesNamesThroughIncludesAndAliases) {
  // The header declares the members (one directly unordered, one through
  // a using-alias); the .cpp iterates them — the same split as
  // replica.h/replica.cpp in the real tree.
  const auto findings = run_lint(
      {fixture("unordered_iter.h"), fixture("unordered_iter.cpp")},
      fixture_options());
  EXPECT_EQ(findings_in(findings, "unordered_iter.cpp"),
            (std::vector<std::pair<int, std::string>>{
                {10, "unordered-iteration"},  // range-for over member
                {13, "unordered-iteration"},  // .begin() walk of alias
            }));
  // The vector loop, the suppressed fold and the count() lookup are
  // clean; the header declares but never iterates.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(LintUnorderedIteration, OwnOrderedDeclarationShadowsAnIncludedOne) {
  // shadow_ordered.cpp walks its class's std::map index_, declared in
  // its same-stem header, which includes a header with an unordered
  // index_. The file's own declaration decides: no finding.
  const auto findings = run_lint(
      {fixture("shadow_unordered.h"), fixture("shadow_ordered.h"),
       fixture("shadow_ordered.cpp")},
      fixture_options());
  EXPECT_EQ(findings_in(findings, "shadow_"),
            (std::vector<std::pair<int, std::string>>{}));
}

TEST(LintPointerKeyed, FlagsPointerKeysNotPointerValues) {
  const auto findings =
      run_lint({fixture("pointer_key.cpp")}, fixture_options());
  EXPECT_EQ(findings_in(findings, "pointer_key.cpp"),
            (std::vector<std::pair<int, std::string>>{
                {13, "pointer-keyed-container"},  // map<Node*, int>
                {14, "pointer-keyed-container"},  // set<const Node*>
                {15, "pointer-keyed-container"},  // unordered_set<int*>
            }));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintUninitMember, FlagsBareScalarsInConfiguredFilesOnly) {
  Options options = fixture_options();
  options.uninit_member_files.push_back("lint_fixtures/uninit_member.h");
  const auto findings =
      run_lint({fixture("uninit_member.h")}, options);
  EXPECT_EQ(findings_in(findings, "uninit_member.h"),
            (std::vector<std::pair<int, std::string>>{
                {14, "uninit-member"},  // std::uint64_t id;
                {15, "uninit-member"},  // SeqNum seq; (scalar alias)
                {16, "uninit-member"},  // double weight;
                {27, "uninit-member"},  // nested struct scalar
            }));
  EXPECT_EQ(findings.size(), 4u);

  // The same file NOT on the uninit-member list produces nothing: the
  // rule is scoped to wire-message headers.
  const auto unscoped =
      run_lint({fixture("uninit_member.h")}, fixture_options());
  EXPECT_TRUE(unscoped.empty());
}

TEST(LintSuppressions, HonoredMalformedWrongRuleUnusedAndUnknown) {
  const auto findings =
      run_lint({fixture("suppressions.cpp")}, fixture_options());
  EXPECT_EQ(findings_in(findings, "suppressions.cpp"),
            (std::vector<std::pair<int, std::string>>{
                {16, "bad-suppression"},     // no '-- justification'
                {17, "wall-clock"},          // malformed doesn't suppress
                {19, "unused-suppression"},  // wrong rule matched nothing
                {20, "wall-clock"},          // wrong rule doesn't suppress
                {22, "bad-suppression"},     // unknown rule name
                {22, "unused-suppression"},  // ...and it matched nothing
                {23, "wall-clock"},          // unknown rule doesn't suppress
                {25, "unused-suppression"},  // stale exemption
            }));
}

TEST(LintCatalog, EveryRuleIsDocumented) {
  const auto catalog = findep::lint::rule_catalog();
  std::vector<std::string> names;
  for (const auto& rule : catalog) {
    EXPECT_FALSE(rule.summary.empty()) << rule.name;
    names.push_back(rule.name);
  }
  const std::vector<std::string> expected = {
      "wall-clock",         "ambient-rng",
      "unordered-iteration", "pointer-keyed-container",
      "uninit-member",      "bad-suppression",
      "unused-suppression"};
  EXPECT_EQ(names, expected);
}

TEST(LintCollect, FixtureDirectoryIsExcludedByDefault) {
  // The default exclude list keeps the deliberate violations out of the
  // lint_tree gate: collecting the fixture dir with default options
  // yields nothing.
  const auto files = findep::lint::collect_sources(
      {std::string(FINDEP_LINT_FIXTURE_DIR)}, Options{});
  EXPECT_TRUE(files.empty());
}

}  // namespace
