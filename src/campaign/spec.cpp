#include "campaign/spec.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/fault.h"
#include "campaign/target.h"
#include "support/assert.h"

namespace findep::campaign {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("campaign spec line " + std::to_string(line) +
                              ": " + what);
}

std::string trim(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  std::size_t end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

double parse_double(const std::string& text, std::size_t line) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    fail(line, "'" + text + "' is not a number");
  }
  if (consumed != text.size()) fail(line, "'" + text + "' is not a number");
  return value;
}

std::uint64_t parse_u64(const std::string& text, std::size_t line) {
  std::size_t consumed = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    fail(line, "'" + text + "' is not a positive integer");
  }
  if (consumed != text.size() || text[0] == '-') {
    fail(line, "'" + text + "' is not a positive integer");
  }
  return value;
}

/// Per-axis semantic validation, so a bad spec dies at parse time with a
/// line number instead of mid-campaign in a factory.
void validate_axis_value(const std::string& axis, const std::string& value,
                         std::size_t line) {
  if (axis == "target") {
    try {
      (void)require_target_family(value);
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
  } else if (axis == "fault") {
    try {
      (void)parse_fault_kind(value);
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
  } else if (axis == "rate") {
    const double rate = parse_double(value, line);
    if (rate <= 0.0 || rate > 1.0) {
      fail(line, "rate " + value + " outside (0, 1]");
    }
  } else if (axis == "n") {
    if (parse_u64(value, line) < 4) {
      fail(line, "n must be at least 4 (got " + value + ")");
    }
  }
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& text) {
  static const std::vector<std::string> kAxes = {"target", "fault", "rate",
                                                 "n"};
  CampaignSpec spec;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos) {
      raw.resize(hash);
    }
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected 'axis = value, ...' (no '=')");
    }
    const std::string axis = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));
    if (axis.empty()) fail(line_no, "missing axis name before '='");
    if (rhs.empty()) fail(line_no, "axis '" + axis + "' has no values");

    if (axis == "seeds") {
      if (spec.seeds.has_value()) fail(line_no, "duplicate 'seeds'");
      const std::uint64_t seeds = parse_u64(rhs, line_no);
      if (seeds == 0) fail(line_no, "seeds must be positive");
      spec.seeds = seeds;
      continue;
    }

    bool known = false;
    for (const std::string& name : kAxes) known = known || name == axis;
    if (!known) {
      std::string all = "seeds";
      for (const std::string& name : kAxes) all = name + ", " + all;
      fail(line_no, "unknown axis '" + axis + "' (known: " + all + ")");
    }
    for (const auto& [seen, values] : spec.overrides) {
      if (seen == axis) fail(line_no, "duplicate axis '" + axis + "'");
    }

    std::vector<std::string> values;
    std::size_t start = 0;
    while (start <= rhs.size()) {
      const std::size_t comma = rhs.find(',', start);
      const std::string value =
          trim(comma == std::string::npos ? rhs.substr(start)
                                          : rhs.substr(start, comma - start));
      if (value.empty()) fail(line_no, "empty value in axis '" + axis + "'");
      validate_axis_value(axis, value, line_no);
      for (const std::string& prior : values) {
        if (prior == value) {
          fail(line_no, "axis '" + axis + "' lists '" + value +
                            "' twice (overlapping cells)");
        }
      }
      values.push_back(value);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    spec.overrides.emplace_back(axis, std::move(values));
  }
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read campaign spec: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_campaign_spec(buffer.str());
}

std::vector<std::string> spec_arguments(const CampaignSpec& spec) {
  std::vector<std::string> args = {"--family", "campaign"};
  for (const auto& [axis, values] : spec.overrides) {
    std::string set = axis + '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) set += ',';
      set += values[i];
    }
    args.push_back("--set");
    args.push_back(std::move(set));
  }
  if (spec.seeds.has_value()) {
    args.push_back("--seeds");
    args.push_back(std::to_string(*spec.seeds));
  }
  return args;
}

runtime::ParamGrid default_grid() {
  runtime::ParamGrid grid;
  std::vector<runtime::ParamValue> targets;
  for (const TargetFamily& family : target_families()) {
    targets.emplace_back(family.name);
  }
  grid.add_axis("target", std::move(targets));
  std::vector<runtime::ParamValue> faults;
  for (const auto& [fault_name, fault_kind] : fault_kinds()) {
    faults.emplace_back(fault_name);
  }
  grid.add_axis("fault", std::move(faults));
  grid.add_axis("rate", {1.0, 0.5});
  grid.add_axis("n", {7});
  return grid;
}

runtime::ParamGrid campaign_grid(const CampaignSpec& spec) {
  runtime::ParamGrid grid = default_grid();
  for (const auto& [axis, values] : spec.overrides) {
    const bool known = grid.override_axis(axis, values);
    FINDEP_ASSERT(known);  // parse validated the axis names
  }
  return grid;
}

}  // namespace findep::campaign
