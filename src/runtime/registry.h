// The declarative scenario registry.
//
// A *scenario family* is one experiment kind (a bench table, a paper
// figure) described declaratively: a name, a one-line description, the
// default parameter grids, and a factory that turns one grid point into a
// `Scenario` value. The factory parses and validates the point, builds
// the instance name, and binds the family's run function over the parsed
// values, so a bad point fails before any run starts. Families register
// themselves process-wide at static-initialization time
// (`ScenarioRegistration` in the family's translation unit), so every
// binary linking the scenario library — the `findep-bench` CLI and the
// tests — sees the same catalog.
//
// `run_families_main()` is findep-bench's main on top of it: select
// families (`--family`, default all), override grid axes
// (`--set axis=v1,v2`), expand the selection once (`expand_selection`),
// and hand the instances to the in-process sweep or to `--emit-tasks`.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/param.h"
#include "runtime/scenario.h"

namespace findep::runtime {

struct ScenarioFamily {
  /// Unique registry key, [a-z0-9_]+ by convention.
  std::string name;
  /// One line, shown by `--list`.
  std::string description;
  /// Union of cartesian blocks: most families have one grid; families
  /// whose parameter space is not a single product (e.g. a size sweep
  /// plus fault mixes at one size) register several. Empty = one
  /// parameterless instance.
  std::vector<ParamGrid> grids;
  /// Builds the scenario for one grid point; throws on an invalid point.
  std::function<Scenario(const ParamSet&)> factory;
  /// False for measured (wall-clock timing) families, which are exempt
  /// from the bit-identical determinism contract.
  bool deterministic = true;

  /// Total instances across all grids.
  [[nodiscard]] std::size_t instance_count() const noexcept;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry every family registers into.
  [[nodiscard]] static ScenarioRegistry& global();

  /// Throws std::invalid_argument on a duplicate or unnamed family or a
  /// null factory.
  void register_family(ScenarioFamily family);

  [[nodiscard]] const ScenarioFamily* find(const std::string& name) const;
  /// All families, sorted by name.
  [[nodiscard]] std::vector<const ScenarioFamily*> families() const;
  [[nodiscard]] std::size_t size() const noexcept {
    return families_.size();
  }

 private:
  std::vector<ScenarioFamily> families_;
};

/// Registers a family with the global registry at static-init time:
///   const ScenarioRegistration kFamily{{.name = ..., .factory = ...}};
struct ScenarioRegistration {
  explicit ScenarioRegistration(ScenarioFamily family);
};

/// Expands `grids` through `family.factory`, one scenario per grid point,
/// grids in order.
[[nodiscard]] std::vector<std::unique_ptr<Scenario>> instantiate_family(
    const ScenarioFamily& family, const std::vector<ParamGrid>& grids);

/// One selected family with its (possibly axis-overridden) grids, in
/// catalog order — what `run_families_main` resolves from `--family` /
/// `--set`.
using FamilySelection =
    std::vector<std::pair<const ScenarioFamily*, std::vector<ParamGrid>>>;

/// One scenario instance of an expanded selection.
struct CatalogInstance {
  const ScenarioFamily* family = nullptr;
  ParamSet point;
  /// Position in the unfiltered expansion: the wire's `sequence`, which
  /// orders a merge like the in-process sweep.
  std::size_t sequence = 0;
  Scenario scenario;
};

/// The one expansion behind the in-process sweep and `--emit-tasks`:
/// every grid point of every selected family in order (an empty grid
/// list is one parameterless point), built once through the factory,
/// numbered, then kept only when its name contains `only` and does not
/// contain a non-empty `exclude`. A factory rejection throws
/// std::invalid_argument naming the family.
[[nodiscard]] std::vector<CatalogInstance> expand_selection(
    const FamilySelection& selection, const std::string& only,
    const std::string& exclude);

/// The registry-driven main of `findep-bench`: understands every suite
/// flag (runtime/suite.h) and runs the selected families, or the whole
/// registry when no `--family` is given.
int run_families_main(int argc, const char* const* argv);

}  // namespace findep::runtime
