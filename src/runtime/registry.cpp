#include "runtime/registry.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

#include "runtime/suite.h"
#include "runtime/task.h"

namespace findep::runtime {

std::size_t ScenarioFamily::instance_count() const noexcept {
  if (grids.empty()) return 1;
  std::size_t total = 0;
  for (const ParamGrid& grid : grids) total += grid.size();
  return total;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::register_family(ScenarioFamily family) {
  if (family.name.empty()) {
    throw std::invalid_argument("scenario family must have a name");
  }
  if (family.factory == nullptr) {
    throw std::invalid_argument("scenario family '" + family.name +
                                "' has no factory");
  }
  if (find(family.name) != nullptr) {
    throw std::invalid_argument("scenario family '" + family.name +
                                "' registered twice");
  }
  families_.push_back(std::move(family));
}

const ScenarioFamily* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioFamily& family : families_) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

std::vector<const ScenarioFamily*> ScenarioRegistry::families() const {
  std::vector<const ScenarioFamily*> out;
  out.reserve(families_.size());
  for (const ScenarioFamily& family : families_) out.push_back(&family);
  std::sort(out.begin(), out.end(),
            [](const ScenarioFamily* a, const ScenarioFamily* b) {
              return a->name < b->name;
            });
  return out;
}

ScenarioRegistration::ScenarioRegistration(ScenarioFamily family) {
  ScenarioRegistry::global().register_family(std::move(family));
}

std::vector<std::unique_ptr<Scenario>> instantiate_family(
    const ScenarioFamily& family, const std::vector<ParamGrid>& grids) {
  std::vector<std::unique_ptr<Scenario>> out;
  if (grids.empty()) {
    out.push_back(std::make_unique<Scenario>(family.factory(ParamSet{})));
    return out;
  }
  for (const ParamGrid& grid : grids) {
    for (const ParamSet& point : grid.expand()) {
      out.push_back(std::make_unique<Scenario>(family.factory(point)));
    }
  }
  return out;
}

std::vector<CatalogInstance> expand_selection(const FamilySelection& selection,
                                              const std::string& only,
                                              const std::string& exclude) {
  std::vector<CatalogInstance> out;
  std::size_t sequence = 0;
  for (const auto& [family, grids] : selection) {
    std::vector<ParamSet> points;
    if (grids.empty()) points.emplace_back();
    for (const ParamGrid& grid : grids) {
      std::vector<ParamSet> block = grid.expand();
      points.insert(points.end(), std::make_move_iterator(block.begin()),
                    std::make_move_iterator(block.end()));
    }
    // Factories validate their grid points (string axes like
    // mix/fleet/case, numeric preconditions); with overridden grids those
    // throws are user input, not bugs.
    const auto build = [family = family](const ParamSet& point) -> Scenario {
      try {
        return family->factory(point);
      } catch (const std::exception& e) {
        throw std::invalid_argument("family '" + family->name +
                                    "': " + e.what());
      }
    };
    for (ParamSet& point : points) {
      Scenario scenario = build(point);
      const std::size_t seq = sequence++;
      const std::string& name = scenario.name();
      if (!only.empty() && name.find(only) == std::string::npos) continue;
      if (!exclude.empty() && name.find(exclude) != std::string::npos) {
        continue;
      }
      out.push_back({family, std::move(point), seq, std::move(scenario)});
    }
  }
  return out;
}

namespace {

std::string grid_summary(const std::vector<ParamGrid>& grids) {
  std::string out;
  for (const ParamGrid& grid : grids) {
    if (!out.empty()) out += "; ";
    if (grid.axes().empty()) {
      out += "(fixed)";
      continue;
    }
    std::string axes;
    for (const ParamGrid::Axis& axis : grid.axes()) {
      if (!axes.empty()) axes += ' ';
      axes += axis.name + "=[";
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (i != 0) axes += ',';
        axes += axis.values[i].to_string();
      }
      axes += ']';
    }
    out += axes;
  }
  return out.empty() ? "(fixed)" : out;
}

void list_families(const std::vector<const ScenarioFamily*>& selected,
                   std::ostream& out) {
  std::size_t width = 0;
  for (const ScenarioFamily* family : selected) {
    width = std::max(width, family->name.size());
  }
  for (const ScenarioFamily* family : selected) {
    out << family->name << std::string(width - family->name.size(), ' ')
        << "  " << family->instance_count() << " scenario(s)";
    if (!family->deterministic) out << "  [measured]";
    out << "  " << family->description << '\n'
        << std::string(width + 2, ' ') << grid_summary(family->grids)
        << '\n';
  }
}

int usage_error(std::ostream& err, const std::string& message) {
  err << "error: " << message << '\n';
  return 2;
}

}  // namespace

int run_families_main(int argc, const char* const* argv) {
  SuiteOptions options;
  if (!parse_suite_options(argc, argv, options, std::cerr)) return 2;

  // Only a sweep and --emit-tasks select families: a worker executes
  // whatever tasks arrive, a merge only re-renders results.
  const bool wire_side = options.worker || !options.merge.empty();
  std::vector<CatalogInstance> instances;
  if (!wire_side) {
    std::vector<const ScenarioFamily*> selected =
        ScenarioRegistry::global().families();

    // --family narrows the catalog, which stays in name order; every
    // requested name must resolve.
    const std::vector<std::string>& wanted = options.families;
    for (const std::string& name : wanted) {
      if (ScenarioRegistry::global().find(name) != nullptr) continue;
      std::string known;
      for (const ScenarioFamily* f : selected) {
        if (!known.empty()) known += ", ";
        known += f->name;
      }
      return usage_error(std::cerr, "unknown family '" + name +
                                        "' (available: " + known + ")");
    }
    if (!wanted.empty()) {
      std::erase_if(selected, [&](const ScenarioFamily* f) {
        return std::find(wanted.begin(), wanted.end(), f->name) ==
               wanted.end();
      });
    }

    if (options.list) {
      list_families(selected, std::cout);
      return 0;
    }

    // Working copies of the grids, then the axis overrides in
    // command-line order. Every override must hit at least one selected
    // grid — a typoed axis is a usage error.
    FamilySelection selection;
    for (const ScenarioFamily* family : selected) {
      selection.emplace_back(family, family->grids);
    }
    for (const AxisOverride& over : options.sets) {
      bool applied = false;
      for (auto& [family, grids] : selection) {
        for (ParamGrid& grid : grids) {
          try {
            applied = grid.override_axis(over.axis, over.values) || applied;
          } catch (const std::invalid_argument& e) {
            return usage_error(std::cerr, std::string("--set ") + e.what());
          }
        }
      }
      if (!applied) {
        return usage_error(std::cerr, "--set " + over.axis +
                                          ": no selected family has that "
                                          "axis");
      }
    }

    // The same instances feed the sweep and --emit-tasks, so
    // `--emit-tasks | --worker | --merge -` reproduces the in-process
    // sweep byte-for-byte.
    try {
      instances = expand_selection(selection, options.only, options.exclude);
    } catch (const std::exception& e) {
      return usage_error(std::cerr, e.what());
    }
  }

  // --out is opened once, after every usage check and before any work:
  // a bad path fails before the work, and a usage error never truncates
  // an earlier results file.
  std::ofstream file;
  if (!options.out_file.empty()) {
    file.open(options.out_file);
    if (!file) {
      return usage_error(std::cerr, "cannot open --out file '" +
                                        options.out_file + "'");
    }
  }
  std::ostream& out = file.is_open() ? file : std::cout;

  int code = 0;
  if (options.worker) {
    code = run_worker(std::cin, out, std::cerr, options.sweep.threads);
  } else if (!options.merge.empty()) {
    code = merge_shards(options.merge, options.csv, options.json, out,
                        std::cerr);
  } else if (options.emit_tasks) {
    emit_task_catalog(instances, options.sweep, out);
  } else {
    code = sweep_instances(instances, options, out, std::cerr);
  }
  if (!file.is_open()) return code;

  // A truncated results file must not exit 0.
  file.flush();
  if (!file) {
    return usage_error(std::cerr, "failed writing --out file '" +
                                      options.out_file + "'");
  }
  // A sweep keeps a one-line confirmation on stdout, so scripted sweeps
  // can pipe stdout and stderr freely.
  if (!wire_side && !options.emit_tasks) {
    std::cout << "wrote " << options.out_file << " ("
              << (options.json ? "json" : options.csv ? "csv" : "tables")
              << ")\n";
  }
  return code;
}

}  // namespace findep::runtime
