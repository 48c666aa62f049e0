#include "golden.h"

#include <fstream>
#include <stdexcept>

#include "runtime/task.h"

namespace findep::perf {

namespace {

/// Copies into `body` the JSON string (still escaped) that starts right
/// after `key` on `line`; false when `key` is absent or unterminated.
bool string_after(const std::string& line, const std::string& key,
                  std::string& body) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  std::size_t end = at + key.size();
  while (end < line.size() && line[end] != '"') {
    end += line[end] == '\\' ? 2 : 1;
  }
  if (end >= line.size()) return false;
  body = line.substr(at + key.size(), end - at - key.size());
  return true;
}

}  // namespace

// The sink renders one scenario header line and then one line per run:
//     {"name": "...", "family": "...", "runs": [
//       {"seed": N, "metrics": {...}},
Golden Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden '" + path + "'");
  Golden golden;
  std::string scenario;
  std::string line;
  while (std::getline(in, line)) {
    std::string name;
    if (string_after(line, "{\"name\": \"", name)) {
      scenario = name;
      continue;
    }
    const std::size_t seed_at = line.find("{\"seed\": ");
    const std::size_t metrics_at = line.find("\"metrics\": {");
    if (seed_at == std::string::npos || metrics_at == std::string::npos) {
      continue;
    }
    const std::size_t open = metrics_at + 11;
    const std::size_t close = line.find('}', open);
    if (scenario.empty() || close == std::string::npos) {
      throw std::runtime_error("malformed golden line: " + line);
    }
    const std::uint64_t seed = std::stoull(line.substr(seed_at + 9));
    golden.records_[{scenario, seed}] = runtime::metric_record_from_json(
        line.substr(open, close + 1 - open));
  }
  if (golden.records_.empty()) {
    throw std::runtime_error("golden '" + path + "' holds no records");
  }
  return golden;
}

const runtime::MetricRecord* Golden::find(const std::string& scenario,
                                          std::uint64_t seed) const {
  const auto it = records_.find({runtime::json_escape(scenario), seed});
  return it == records_.end() ? nullptr : &it->second;
}

const runtime::MetricRecord* Golden::find_any(
    const std::string& scenario) const {
  const std::string key = runtime::json_escape(scenario);
  const auto it = records_.lower_bound({key, 0});
  return it == records_.end() || it->first.first != key ? nullptr
                                                        : &it->second;
}

std::string Golden::diff(const runtime::MetricRecord& expected,
                         const runtime::MetricRecord& actual) {
  const auto& want = expected.entries();
  const auto& got = actual.entries();
  for (std::size_t i = 0; i < want.size() || i < got.size(); ++i) {
    if (i >= got.size()) return "missing metric " + want[i].first;
    if (i >= want.size()) return "extra metric " + got[i].first;
    if (want[i].first != got[i].first) {
      return "metric " + got[i].first + " where golden has " + want[i].first;
    }
    const std::string w = runtime::format_exact(want[i].second);
    const std::string g = runtime::format_exact(got[i].second);
    if (w != g) return want[i].first + " = " + g + ", golden " + w;
  }
  return {};
}

}  // namespace findep::perf
