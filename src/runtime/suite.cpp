#include "runtime/suite.h"

#include <charconv>
#include <fstream>
#include <ostream>

#include "support/assert.h"
#include "support/table.h"

namespace findep::runtime {

namespace {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  // The whole text must be digits that fit: from_chars rejects signs,
  // spaces and the empty string, and reports overflow instead of
  // clamping it the way strtoull does.
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  out = v;
  return true;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void print_usage(std::ostream& err) {
  err << "usage: [--seed S] [--seeds K] [--threads T] [--only SUBSTR] "
         "[--exclude SUBSTR] [--family NAME[,NAME]] [--set AXIS=V[,V]] "
         "[--list] [--csv] [--json] [--out FILE]\n"
         "       [--emit-tasks | --worker | --merge SHARD...]  "
         "(distributed sweep; see DESIGN.md)\n"
         "       [--spec FILE] | --report SHARD...  (fault campaigns)\n";
}

bool fail(std::ostream& err, const std::string& message) {
  err << "error: " << message << '\n';
  print_usage(err);
  return false;
}

}  // namespace

bool parse_suite_options(int argc, const char* const* argv,
                         SuiteOptions& options, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      options.list = true;
      continue;
    }
    if (arg == "--csv") {
      options.csv = true;
      continue;
    }
    if (arg == "--json") {
      options.json = true;
      continue;
    }
    if (arg == "--emit-tasks") {
      options.emit_tasks = true;
      continue;
    }
    if (arg == "--worker") {
      options.worker = true;
      continue;
    }
    if (arg == "--merge") {
      // Consumes every following non-flag argument as a shard path; "-"
      // alone names stdin.
      options.merge_mode = true;
      while (i + 1 < argc) {
        const std::string path = argv[i + 1];
        if (path.size() >= 2 && path.compare(0, 2, "--") == 0) break;
        options.merge.push_back(path);
        ++i;
      }
      if (options.merge.empty()) {
        return fail(err, "--merge expects at least one shard file "
                         "(or '-' for stdin)");
      }
      continue;
    }
    // Everything else takes a value.
    if (i + 1 >= argc) {
      return fail(err, arg + " expects a value");
    }
    const std::string value = argv[++i];
    std::uint64_t parsed = 0;
    if (arg == "--seed") {
      if (!parse_u64(value, options.sweep.base_seed)) {
        return fail(err,
                    "--seed expects a non-negative integer, got '" + value +
                        "'");
      }
    } else if (arg == "--seeds") {
      if (!parse_u64(value, parsed) || parsed == 0) {
        return fail(
            err, "--seeds expects a positive integer, got '" + value + "'");
      }
      options.sweep.num_seeds = static_cast<std::size_t>(parsed);
    } else if (arg == "--threads") {
      if (!parse_u64(value, parsed)) {
        return fail(err, "--threads expects a non-negative integer, got '" +
                             value + "'");
      }
      options.sweep.threads = static_cast<std::size_t>(parsed);
    } else if (arg == "--only") {
      options.only = value;
    } else if (arg == "--exclude") {
      if (value.empty()) {
        return fail(err, "--exclude expects a non-empty substring");
      }
      options.exclude = value;
    } else if (arg == "--out") {
      if (value.empty()) return fail(err, "--out expects a file path");
      options.out_file = value;
    } else if (arg == "--family") {
      for (std::string& name : split_commas(value)) {
        if (name.empty()) {
          return fail(err, "--family expects family names, got '" + value +
                               "'");
        }
        options.families.push_back(std::move(name));
      }
    } else if (arg == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= value.size()) {
        return fail(err, "--set expects AXIS=V1[,V2,...], got '" + value +
                             "'");
      }
      AxisOverride over;
      over.axis = value.substr(0, eq);
      over.values = split_commas(value.substr(eq + 1));
      for (const std::string& v : over.values) {
        if (v.empty()) {
          return fail(err,
                      "--set " + over.axis + ": empty value in '" + value +
                          "'");
        }
      }
      options.sets.push_back(std::move(over));
    } else {
      return fail(err, "unknown flag '" + arg + "'");
    }
  }
  const int modes = static_cast<int>(options.emit_tasks) +
                    static_cast<int>(options.worker) +
                    static_cast<int>(options.merge_mode);
  if (modes > 1) {
    return fail(err, "--emit-tasks, --worker and --merge are mutually "
                     "exclusive");
  }
  return true;
}

bool open_output(const std::string& path, std::ofstream& file,
                 std::ostream*& dest) {
  if (path.empty()) return true;
  file.open(path);
  if (!file) return false;
  dest = &file;
  return true;
}

bool close_output(const std::string& path, std::ofstream& file,
                  const std::ostream* dest, std::ostream& err) {
  if (dest != &file) return true;
  file.flush();
  if (!file) {
    err << "error: failed writing --out file '" << path << "'\n";
    return false;
  }
  return true;
}

void ScenarioSuite::add(std::unique_ptr<Scenario> scenario) {
  FINDEP_REQUIRE(scenario != nullptr);
  scenarios_.push_back(std::move(scenario));
}

int ScenarioSuite::run(const SuiteOptions& options, std::ostream& out,
                       std::ostream& err) const {
  // Select first, then sweep everything through one global work queue so
  // the whole suite shares the worker pool (fills cores at --seeds 1).
  std::vector<const Scenario*> selected;
  for (const auto& scenario : scenarios_) {
    if (!options.only.empty() &&
        scenario->name().find(options.only) == std::string::npos) {
      continue;
    }
    if (!options.exclude.empty() &&
        scenario->name().find(options.exclude) != std::string::npos) {
      continue;
    }
    selected.push_back(scenario.get());
  }

  // --out FILE redirects the rendered results; stdout keeps a one-line
  // confirmation so scripted sweeps can pipe stdout/stderr freely. Opened
  // before the sweep so a bad path fails before the work, not after.
  std::ofstream file;
  std::ostream* dest = &out;
  if (!open_output(options.out_file, file, dest)) {
    err << "error: cannot open --out file '" << options.out_file << "'\n";
    return 2;
  }

  const SweepRunner runner(options.sweep);
  std::vector<std::vector<RunRecord>> results = runner.run_all(selected);

  MetricsSink sink;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    sink.add(selected[s]->name(), selected[s]->family(),
             std::move(results[s]));
  }

  if (options.json) {
    sink.print_json(*dest);
  } else if (options.csv) {
    sink.print_csv(*dest);
  } else {
    if (!intro_.empty()) support::print_banner(*dest, intro_);
    *dest << "sweep: " << options.sweep.num_seeds << " seed(s) from --seed "
          << options.sweep.base_seed << '\n';
    sink.print_tables(*dest);
  }
  if (!close_output(options.out_file, file, dest, err)) return 2;
  if (dest == &file) {
    out << "wrote " << options.out_file << " ("
        << (options.json ? "json" : options.csv ? "csv" : "tables") << ")\n";
  }

  if (sink.any_errors()) {
    for (const auto& entry : sink.entries()) {
      for (const RunRecord& record : entry.records) {
        if (!record.ok()) {
          err << entry.scenario << " seed " << record.seed
              << " failed: " << record.error << '\n';
        }
      }
    }
    return 1;
  }
  return 0;
}

}  // namespace findep::runtime
