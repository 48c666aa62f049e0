#include "runtime/task.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "runtime/suite.h"

namespace findep::runtime {

namespace {

// --- a minimal JSON reader --------------------------------------------------
// Just enough for the wire schema: objects (key order preserved), arrays,
// strings, booleans, and numbers kept as raw tokens so doubles can be
// re-parsed exactly. Accepts the bare tokens inf/-inf/nan that
// format_exact produces — the documented JSONL extension.

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string number;  // raw token, e.g. "1e-310", "inf"
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) {
      throw std::invalid_argument("missing key '" + key + "'");
    }
    return *v;
  }
  [[nodiscard]] const std::string& as_string() const {
    if (kind != Kind::String) throw std::invalid_argument("expected string");
    return str;
  }
  [[nodiscard]] double as_double() const {
    if (kind != Kind::Number) throw std::invalid_argument("expected number");
    char* end = nullptr;
    const double v = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size()) {
      throw std::invalid_argument("bad number '" + number + "'");
    }
    return v;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    if (kind != Kind::Number) throw std::invalid_argument("expected number");
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(number.data(), number.data() + number.size(), v);
    if (ec != std::errc{} || ptr != number.data() + number.size()) {
      throw std::invalid_argument("expected unsigned integer, got '" +
                                  number + "'");
    }
    return v;
  }
  [[nodiscard]] std::size_t as_size() const {
    return static_cast<std::size_t>(as_u64());
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    // Depth bound (found by tests/fuzz_task_json): without it, a line of
    // a few hundred kilobytes of '[' recurses the parser off the stack.
    // The wire schema nests 3 levels deep; 64 is far beyond any legal
    // document and still at most a few dozen stack frames.
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    Json v = parse_value_inner();
    --depth_;
    return v;
  }

  Json parse_value_inner() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json v;
      v.kind = Json::Kind::String;
      v.str = parse_string();
      return v;
    }
    Json v;
    if (literal("true")) {
      v.kind = Json::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = Json::Kind::Bool;
      v.boolean = false;
      return v;
    }
    if (literal("null")) return v;
    return parse_number();
  }

  Json parse_number() {
    Json v;
    v.kind = Json::Kind::Number;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (literal("inf") || literal("nan")) {
      v.number = text_.substr(start, pos_ - start);
      return v;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    v.number = text_.substr(start, pos_ - start);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writer only emits \u for control characters; decode the
          // BMP anyway (UTF-8) so foreign JSONL parses too.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Json parse_json(const std::string& text) { return JsonReader(text).parse(); }

const char* type_tag(const ParamValue& value) {
  if (value.is_bool()) return "bool";
  if (value.is_int()) return "int";
  if (value.is_double()) return "double";
  return "string";
}

/// A representative value of the tagged type, for ParamValue::parse_as.
ParamValue exemplar(const std::string& type) {
  if (type == "bool") return ParamValue(false);
  if (type == "int") return ParamValue(std::int64_t{0});
  if (type == "double") return ParamValue(0.0);
  if (type == "string") return ParamValue(std::string{});
  throw std::invalid_argument("unknown parameter type '" + type + "'");
}

ParamValue param_value_from(const Json& json) {
  const std::string& type = json.at("type").as_string();
  const std::string& text = json.at("value").as_string();
  try {
    return ParamValue::parse_as(text, exemplar(type));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("parameter value '" + text + "' as " + type +
                                ": " + e.what());
  }
}

ParamSet param_set_from(const Json& json) {
  if (json.kind != Json::Kind::Array) {
    throw std::invalid_argument("params must be an array");
  }
  ParamSet set;
  for (const Json& entry : json.array) {
    set.set(entry.at("name").as_string(), param_value_from(entry));
  }
  return set;
}

MetricRecord metric_record_from(const Json& json) {
  if (json.kind != Json::Kind::Object) {
    throw std::invalid_argument("metrics must be an object");
  }
  MetricRecord metrics;
  for (const auto& [name, value] : json.object) {
    metrics.set(name, value.as_double());
  }
  return metrics;
}

RunRecord run_record_from(const Json& json) {
  RunRecord record;
  record.seed = json.at("seed").as_u64();
  record.run_index = json.at("run_index").as_size();
  if (const Json* error = json.find("error");
      error != nullptr && !error->as_string().empty()) {
    record.error = error->as_string();
  } else {
    record.metrics = metric_record_from(json.at("metrics"));
  }
  return record;
}

/// The shared body of RunRecord / TaskResult JSON (no braces).
void append_run_record_body(const RunRecord& record, std::string& out) {
  out += "\"seed\": " + std::to_string(record.seed) +
         ", \"run_index\": " + std::to_string(record.run_index);
  if (!record.ok()) {
    out += ", \"error\": \"" + json_escape(record.error) + '"';
    return;
  }
  out += ", \"metrics\": " + to_json(record.metrics);
}

}  // namespace

// --- writers ----------------------------------------------------------------

std::string to_json(const ParamValue& value) {
  // The value travels as a string rendered exactly (shortest round-trip
  // for doubles), with an explicit type tag: "7" the int and "7" the
  // double are different wire values.
  return std::string("{\"type\": \"") + type_tag(value) + "\", \"value\": \"" +
         json_escape(value.to_string()) + "\"}";
}

std::string to_json(const ParamSet& params) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, value] : params.entries()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(name) + "\", \"type\": \"" +
           type_tag(value) + "\", \"value\": \"" +
           json_escape(value.to_string()) + "\"}";
  }
  return out + "]";
}

std::string to_json(const MetricRecord& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(name) + "\": " + format_exact(value);
  }
  return out + "}";
}

std::string to_json(const RunRecord& record) {
  std::string out = "{";
  append_run_record_body(record, out);
  return out + "}";
}

std::string to_json(const TaskSpec& task) {
  return "{\"family\": \"" + json_escape(task.family) +
         "\", \"params\": " + to_json(task.params) +
         ", \"base_seed\": " + std::to_string(task.base_seed) +
         ", \"run_index\": " + std::to_string(task.run_index) +
         ", \"sequence\": " + std::to_string(task.sequence) + "}";
}

std::string to_json(const TaskResult& result) {
  std::string out = "{\"family\": \"" + json_escape(result.family) +
                    "\", \"scenario\": \"" + json_escape(result.scenario) +
                    "\", \"sequence\": " + std::to_string(result.sequence) +
                    ", ";
  append_run_record_body(result.record, out);
  return out + "}";
}

// --- parsers ----------------------------------------------------------------

ParamValue param_value_from_json(const std::string& text) {
  return param_value_from(parse_json(text));
}

ParamSet param_set_from_json(const std::string& text) {
  return param_set_from(parse_json(text));
}

MetricRecord metric_record_from_json(const std::string& text) {
  return metric_record_from(parse_json(text));
}

RunRecord run_record_from_json(const std::string& text) {
  return run_record_from(parse_json(text));
}

TaskSpec task_spec_from_json(const std::string& text) {
  const Json json = parse_json(text);
  TaskSpec task;
  task.family = json.at("family").as_string();
  task.params = param_set_from(json.at("params"));
  task.base_seed = json.at("base_seed").as_u64();
  task.run_index = json.at("run_index").as_size();
  if (const Json* sequence = json.find("sequence")) {
    task.sequence = sequence->as_size();
  }
  return task;
}

TaskResult task_result_from_json(const std::string& text) {
  const Json json = parse_json(text);
  TaskResult result;
  result.family = json.at("family").as_string();
  result.scenario = json.at("scenario").as_string();
  if (const Json* sequence = json.find("sequence")) {
    result.sequence = sequence->as_size();
  }
  result.record = run_record_from(json);
  return result;
}

// --- coordinator: --emit-tasks ----------------------------------------------

void emit_task_catalog(const std::vector<CatalogInstance>& instances,
                       const SweepOptions& sweep, std::ostream& out) {
  for (const CatalogInstance& instance : instances) {
    for (std::size_t i = 0; i < sweep.num_seeds; ++i) {
      out << to_json(TaskSpec{instance.family->name, instance.point,
                              sweep.base_seed, i, instance.sequence})
          << '\n';
    }
  }
}

// --- worker: --worker -------------------------------------------------------

namespace {

/// Streams result lines in input order regardless of completion order, so
/// a worker's stdout is deterministic on any thread count.
class OrderedJsonlCollector final : public ResultCollector {
 public:
  OrderedJsonlCollector(const std::vector<std::size_t>& sequences,
                        std::ostream& out)
      : sequences_(sequences), pending_(sequences.size()),
        done_(sequences.size(), false), out_(out) {}

  void collect(const SweepTask& task, RunRecord record) override {
    if (!record.ok()) any_error_ = true;
    TaskResult result;
    // The *scenario's* rendered family, not the registry family the task
    // named: the two can differ (bft_batching instantiates bft_scaling
    // scenarios), and the merge must render exactly what the in-process
    // sink would — that's the byte-identity contract.
    result.family = task.scenario->family();
    result.scenario = task.scenario->name();
    result.sequence = sequences_[task.slot];
    result.record = std::move(record);
    std::string line = to_json(result);

    const std::lock_guard<std::mutex> lock(mutex_);
    pending_[task.slot] = std::move(line);
    done_[task.slot] = true;
    while (next_to_emit_ < done_.size() && done_[next_to_emit_]) {
      out_ << pending_[next_to_emit_] << '\n';
      pending_[next_to_emit_].clear();
      ++next_to_emit_;
    }
  }

  [[nodiscard]] bool any_error() const noexcept { return any_error_; }

 private:
  const std::vector<std::size_t>& sequences_;
  std::vector<std::string> pending_;
  std::vector<bool> done_;
  std::size_t next_to_emit_ = 0;
  std::ostream& out_;
  std::mutex mutex_;
  std::atomic<bool> any_error_{false};
};

/// Calls `line_fn(line, line_number)` for every line of `in` that holds
/// more than whitespace; stops early, returning false, when it does.
template <typename LineFn>
bool for_each_line(std::istream& in, LineFn line_fn) {
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!line_fn(line, line_number)) return false;
  }
  return true;
}

}  // namespace

int run_worker(std::istream& in, std::ostream& out, std::ostream& err,
               std::size_t threads) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();

  // Parse and resolve everything up front: a malformed task list fails
  // fast (before any work runs) with the offending line number.
  std::vector<SweepTask> tasks;
  std::vector<std::size_t> sequences;
  const bool parsed = for_each_line(in, [&](const std::string& line,
                                            std::size_t line_number) {
    TaskSpec spec;
    try {
      spec = task_spec_from_json(line);
    } catch (const std::invalid_argument& e) {
      err << "error: task line " << line_number << ": " << e.what() << '\n';
      return false;
    }
    const ScenarioFamily* family = registry.find(spec.family);
    if (family == nullptr) {
      err << "error: task line " << line_number << ": unknown scenario "
          << "family '" << spec.family << "'\n";
      return false;
    }
    // A factory throw is data, not a protocol error: a stand-in whose run
    // rethrows the message carries it through the normal execute/collect
    // path, so the merge sees an error-carrying record like any failed
    // run rather than a dead worker.
    std::shared_ptr<const Scenario> scenario;
    try {
      scenario = std::make_shared<const Scenario>(family->factory(spec.params));
    } catch (const std::exception& e) {
      scenario = std::make_shared<const Scenario>(
          spec.family + "/" + spec.params.label(),
          [message = std::string(e.what())](const RunContext&)
              -> MetricRecord { throw std::runtime_error(message); });
    }
    tasks.push_back(SweepTask{std::move(scenario),
                              derive_seed(spec.base_seed, spec.run_index),
                              spec.run_index, tasks.size()});
    sequences.push_back(spec.sequence);
    return true;
  });
  if (!parsed) return 2;

  OrderedJsonlCollector collector(sequences, out);
  run_tasks(tasks, collector, threads);
  out.flush();
  return collector.any_error() ? 1 : 0;
}

// --- the shard reader: --merge and --report ---------------------------------

bool read_shards(const std::vector<std::string>& paths,
                 std::vector<TaskResult>& results, std::ostream& err) {
  for (const std::string& path : paths) {
    std::ifstream file;
    if (path != "-") {
      file.open(path);
      if (!file) {
        err << "error: cannot open shard file '" << path << "'\n";
        return false;
      }
    }
    const std::string label = path == "-" ? "<stdin>" : path;
    const bool ok = for_each_line(
        path == "-" ? std::cin : file,
        [&](const std::string& line, std::size_t line_number) {
          try {
            results.push_back(task_result_from_json(line));
          } catch (const std::invalid_argument& e) {
            err << "error: " << label << " line " << line_number << ": "
                << e.what() << '\n';
            return false;
          }
          return true;
        });
    if (!ok) return false;
  }
  return true;
}

// --- merge: --merge ---------------------------------------------------------

int merge_shards(const std::vector<std::string>& paths, bool csv, bool json,
                 std::ostream& out, std::ostream& err) {
  std::vector<TaskResult> results;
  if (!read_shards(paths, results, err)) return 2;

  // Sequence is part of the group key: two catalog instances may share a
  // display name (e.g. a --set collapsing both bft_scaling grids onto the
  // same point), and the in-process sweep renders them as two entries —
  // the merge must too.
  struct Group {
    const TaskResult* first;
    std::vector<RunRecord> records;
  };
  std::vector<Group> groups;
  for (TaskResult& result : results) {
    const auto it =
        std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
          return g.first->sequence == result.sequence &&
                 g.first->scenario == result.scenario &&
                 g.first->family == result.family;
        });
    Group& group =
        it != groups.end() ? *it : groups.emplace_back(Group{&result, {}});
    for (const RunRecord& existing : group.records) {
      if (existing.seed == result.record.seed &&
          existing.run_index == result.record.run_index) {
        err << "error: duplicate record for scenario '" << result.scenario
            << "' seed " << result.record.seed << " (overlapping shards?)\n";
        return 2;
      }
    }
    group.records.push_back(std::move(result.record));
  }
  // Scenario order: by catalog sequence, first appearance breaking ties —
  // reproduces the in-process sweep order however tasks were sharded.
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.first->sequence < b.first->sequence;
                   });

  MetricsSink sink;
  for (Group& group : groups) {
    sink.add(group.first->scenario, group.first->family,
             std::move(group.records));
  }
  return render_results(sink, csv, json,
                        "merged " + std::to_string(results.size()) +
                            " record(s) from " +
                            std::to_string(paths.size()) + " shard(s)",
                        "", out, err);
}

}  // namespace findep::runtime
