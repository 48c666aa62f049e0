#include "runtime/registry.h"

#include <algorithm>
#include <fstream>
#include <iostream>
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

  // The two wire-side modes need no family selection: a worker executes
  // whatever tasks arrive, a merge only re-renders results.
  if (options.worker || options.merge_mode) {
    std::ofstream out_file;
    std::ostream* dest = &std::cout;
    if (!open_output(options.out_file, out_file, dest)) {
      return usage_error(std::cerr, "cannot open --out file '" +
                                        options.out_file + "'");
    }
    const int code =
        options.worker
            ? run_worker(std::cin, *dest, std::cerr, options.sweep.threads)
            : merge_shards(options.merge, options.csv, options.json, *dest,
                           std::cerr);
    if (!close_output(options.out_file, out_file, dest, std::cerr)) return 2;
    return code;
  }

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
      return std::find(wanted.begin(), wanted.end(), f->name) == wanted.end();
    });
  }

  if (options.list) {
    list_families(selected, std::cout);
    return 0;
  }

  // Working copies of the grids, then the axis overrides in command-line
  // order. Every override must hit at least one selected grid — a
  // typoed axis is a usage error.
  std::vector<std::vector<ParamGrid>> grids;
  grids.reserve(selected.size());
  for (const ScenarioFamily* family : selected) {
    grids.push_back(family->grids);
  }
  for (const AxisOverride& over : options.sets) {
    bool applied = false;
    for (std::vector<ParamGrid>& family_grids : grids) {
      for (ParamGrid& grid : family_grids) {
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

  // Coordinator mode: print the selected catalog as task JSONL instead of
  // sweeping it. The same selection + overridden grids feed both paths,
  // so `--emit-tasks | --worker | --merge -` reproduces the in-process
  // sweep byte-for-byte.
  if (options.emit_tasks) {
    FamilySelection selection;
    for (std::size_t f = 0; f < selected.size(); ++f) {
      selection.emplace_back(selected[f], grids[f]);
    }
    std::ofstream out_file;
    std::ostream* dest = &std::cout;
    if (!open_output(options.out_file, out_file, dest)) {
      return usage_error(std::cerr, "cannot open --out file '" +
                                        options.out_file + "'");
    }
    try {
      emit_task_catalog(selection, options.sweep, options.only,
                        options.exclude, *dest);
    } catch (const std::exception& e) {
      return usage_error(std::cerr, e.what());
    }
    if (!close_output(options.out_file, out_file, dest, std::cerr)) return 2;
    return 0;
  }

  ScenarioSuite suite("findep-bench: the registered scenario catalog");
  for (std::size_t f = 0; f < selected.size(); ++f) {
    // Factories validate their grid points (string axes like
    // mix/fleet/case, numeric preconditions); with overridden grids
    // those throws are user input, not bugs.
    try {
      for (auto& scenario : instantiate_family(*selected[f], grids[f])) {
        suite.add(std::move(scenario));
      }
    } catch (const std::exception& e) {
      return usage_error(std::cerr,
                         "family '" + selected[f]->name + "': " + e.what());
    }
  }
  // `list` was handled above at family granularity; everything else
  // (sweep, --only, rendering) is the suite's job.
  return suite.run(options, std::cout, std::cerr);
}

}  // namespace findep::runtime
