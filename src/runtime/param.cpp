#include "runtime/param.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace findep::runtime {

namespace {

[[noreturn]] void type_error(const std::string& what,
                             const std::string& detail) {
  throw std::invalid_argument("parameter " + what + ": " + detail);
}

std::string alternative_name(const ParamValue::Storage& v) {
  switch (v.index()) {
    case 0:
      return "bool";
    case 1:
      return "int";
    case 2:
      return "double";
    default:
      return "string";
  }
}

/// Shortest decimal rendering that round-trips the double exactly;
/// integral values print without exponent or decimal point.
std::string format_double(double v) {
  char buf[32];
  if (v >= -9.0e18 && v <= 9.0e18 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

bool ParamValue::is_bool() const noexcept {
  return std::holds_alternative<bool>(value_);
}
bool ParamValue::is_int() const noexcept {
  return std::holds_alternative<std::int64_t>(value_);
}
bool ParamValue::is_double() const noexcept {
  return std::holds_alternative<double>(value_);
}
bool ParamValue::is_string() const noexcept {
  return std::holds_alternative<std::string>(value_);
}

bool ParamValue::as_bool() const {
  if (!is_bool()) {
    type_error("as_bool", "holds " + alternative_name(value_));
  }
  return std::get<bool>(value_);
}

std::int64_t ParamValue::as_int() const {
  if (!is_int()) type_error("as_int", "holds " + alternative_name(value_));
  return std::get<std::int64_t>(value_);
}

std::size_t ParamValue::as_size() const {
  const std::int64_t v = as_int();
  if (v < 0) type_error("as_size", "negative value " + std::to_string(v));
  return static_cast<std::size_t>(v);
}

double ParamValue::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (!is_double()) {
    type_error("as_double", "holds " + alternative_name(value_));
  }
  return std::get<double>(value_);
}

const std::string& ParamValue::as_string() const {
  if (!is_string()) {
    type_error("as_string", "holds " + alternative_name(value_));
  }
  return std::get<std::string>(value_);
}

std::string ParamValue::to_string() const {
  switch (value_.index()) {
    case 0:
      return std::get<bool>(value_) ? "true" : "false";
    case 1:
      return std::to_string(std::get<std::int64_t>(value_));
    case 2:
      return format_double(std::get<double>(value_));
    default:
      return std::get<std::string>(value_);
  }
}

ParamValue ParamValue::parse_as(const std::string& text,
                                const ParamValue& like) {
  if (like.is_bool()) {
    if (text == "true" || text == "1" || text == "on") return ParamValue(true);
    if (text == "false" || text == "0" || text == "off") {
      return ParamValue(false);
    }
    throw std::invalid_argument("'" + text + "' is not a boolean");
  }
  if (like.is_int()) {
    std::int64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument("'" + text + "' is not an integer");
    }
    return ParamValue(v);
  }
  if (like.is_double()) {
    if (text.empty()) throw std::invalid_argument("empty value");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      throw std::invalid_argument("'" + text + "' is not a number");
    }
    // Overflow to ±inf is a typo'd magnitude; underflow to a denormal
    // (also ERANGE) is the closest representable value and must parse —
    // the task wire format round-trips denormal parameters through here.
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
      throw std::invalid_argument("'" + text + "' overflows a double");
    }
    return ParamValue(v);
  }
  return ParamValue(text);
}

void ParamSet::set(std::string name, ParamValue value) {
  for (auto& [n, v] : entries_) {
    if (n == name) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
}

bool ParamSet::has(const std::string& name) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.first == name; });
}

const ParamValue& ParamSet::get(const std::string& name) const {
  for (const auto& [n, v] : entries_) {
    if (n == name) return v;
  }
  throw std::invalid_argument("unknown parameter '" + name + "'");
}

bool ParamSet::get_bool(const std::string& name) const {
  return get(name).as_bool();
}
std::int64_t ParamSet::get_int(const std::string& name) const {
  return get(name).as_int();
}
std::size_t ParamSet::get_size(const std::string& name) const {
  return get(name).as_size();
}
double ParamSet::get_double(const std::string& name) const {
  return get(name).as_double();
}
const std::string& ParamSet::get_string(const std::string& name) const {
  return get(name).as_string();
}

std::string ParamSet::label() const {
  std::string out;
  for (const auto& [name, value] : entries_) {
    if (!out.empty()) out += ' ';
    out += name + '=' + value.to_string();
  }
  return out;
}

ParamGrid::ParamGrid(
    std::initializer_list<std::pair<std::string, std::vector<ParamValue>>>
        axes) {
  for (const auto& [name, values] : axes) add_axis(name, values);
}

void ParamGrid::add_axis(std::string name, std::vector<ParamValue> values) {
  if (values.empty()) {
    throw std::invalid_argument("axis '" + name + "' has no values");
  }
  if (has_axis(name)) {
    throw std::invalid_argument("duplicate axis '" + name + "'");
  }
  // A consistent kind per axis keeps override parsing and factory access
  // unambiguous; int and double values may mix on one numeric axis.
  const auto kind = [](const ParamValue& v) {
    return v.is_bool() ? 0 : v.is_string() ? 2 : 1;
  };
  for (const ParamValue& v : values) {
    if (kind(v) != kind(values.front())) {
      throw std::invalid_argument("axis '" + name + "' mixes value types");
    }
  }
  axes_.push_back(Axis{std::move(name), std::move(values)});
}

bool ParamGrid::has_axis(const std::string& name) const noexcept {
  return std::any_of(axes_.begin(), axes_.end(),
                     [&](const Axis& a) { return a.name == name; });
}

bool ParamGrid::override_axis(const std::string& name,
                              const std::vector<std::string>& values) {
  for (Axis& axis : axes_) {
    if (axis.name != name) continue;
    if (values.empty()) {
      throw std::invalid_argument("axis '" + name + "' has no values");
    }
    // Parse with the axis's kind: a mixed int/double numeric axis must
    // accept double overrides, so prefer a double representative.
    const ParamValue* like = &axis.values.front();
    if (like->is_int()) {
      for (const ParamValue& v : axis.values) {
        if (v.is_double()) {
          like = &v;
          break;
        }
      }
    }
    std::vector<ParamValue> parsed;
    parsed.reserve(values.size());
    for (const std::string& text : values) {
      ParamValue value;
      try {
        value = ParamValue::parse_as(text, *like);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("axis '" + name + "': " + e.what());
      }
      // Compared parsed, so "1" and "1.0" on a double axis are one value:
      // listing it twice would run the same grid point twice.
      if (std::find(parsed.begin(), parsed.end(), value) != parsed.end()) {
        throw std::invalid_argument("axis '" + name + "' lists " +
                                    value.to_string() + " twice");
      }
      parsed.push_back(std::move(value));
    }
    axis.values = std::move(parsed);
    return true;
  }
  return false;
}

std::size_t ParamGrid::size() const noexcept {
  std::size_t n = 1;
  for (const Axis& axis : axes_) n *= axis.values.size();
  return n;
}

std::vector<ParamSet> ParamGrid::expand() const {
  std::vector<ParamSet> out;
  out.reserve(size());
  std::vector<std::size_t> index(axes_.size(), 0);
  for (;;) {
    ParamSet point;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      point.set(axes_[a].name, axes_[a].values[index[a]]);
    }
    out.push_back(std::move(point));
    // Odometer increment, last axis fastest.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++index[a] < axes_[a].values.size()) break;
      index[a] = 0;
      if (a == 0) return out;
    }
    if (axes_.empty()) return out;
  }
}

}  // namespace findep::runtime
