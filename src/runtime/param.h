// Declarative experiment parameters.
//
// A `ParamGrid` describes a scenario family's parameter space as named
// *axes* of values; `expand()` walks the cartesian product in definition
// order (first axis outermost, matching the nested for-loops the old
// bench drivers hand-rolled) and yields one `ParamSet` per grid point.
// The CLI overrides axes with `--set axis=v1,v2`; override values are
// parsed with the type of the axis's default values, so a typo in a
// numeric axis is a usage error, not a silently-stringly parameter.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace findep::runtime {

/// One typed parameter value. The alternatives cover everything the
/// scenario factories consume; `as_double()` accepts integers so grids
/// may write `n=[4, 7]` for a double-typed parameter.
class ParamValue {
 public:
  using Storage = std::variant<bool, std::int64_t, double, std::string>;

  ParamValue() : value_(std::int64_t{0}) {}
  ParamValue(bool v) : value_(v) {}                 // NOLINT(runtime/explicit)
  ParamValue(std::int64_t v) : value_(v) {}         // NOLINT(runtime/explicit)
  ParamValue(int v) : value_(std::int64_t{v}) {}    // NOLINT(runtime/explicit)
  ParamValue(std::size_t v)                         // NOLINT(runtime/explicit)
      : value_(static_cast<std::int64_t>(v)) {}
  ParamValue(double v) : value_(v) {}               // NOLINT(runtime/explicit)
  ParamValue(std::string v)                         // NOLINT(runtime/explicit)
      : value_(std::move(v)) {}
  ParamValue(const char* v) : value_(std::string(v)) {}  // NOLINT

  [[nodiscard]] bool is_bool() const noexcept;
  [[nodiscard]] bool is_int() const noexcept;
  [[nodiscard]] bool is_double() const noexcept;
  [[nodiscard]] bool is_string() const noexcept;

  /// Typed access. Throws std::invalid_argument on an incompatible
  /// alternative; `as_double` additionally accepts int, `as_size`/`as_int`
  /// reject negative values where the target cannot hold them.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::size_t as_size() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Round-trippable rendering: booleans as true/false, doubles with up
  /// to 17 significant digits trimmed to the shortest exact form.
  [[nodiscard]] std::string to_string() const;

  /// Parses `text` as the same alternative `like` holds. Throws
  /// std::invalid_argument with a descriptive message on mismatch.
  [[nodiscard]] static ParamValue parse_as(const std::string& text,
                                           const ParamValue& like);

  bool operator==(const ParamValue&) const = default;

 private:
  Storage value_;
};

/// Named parameter values in axis-definition order (one grid point).
class ParamSet {
 public:
  void set(std::string name, ParamValue value);

  [[nodiscard]] bool has(const std::string& name) const noexcept;
  /// Throws std::invalid_argument when `name` is absent.
  [[nodiscard]] const ParamValue& get(const std::string& name) const;

  // Typed shorthands (throw on missing name or incompatible type).
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::size_t get_size(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  [[nodiscard]] const std::vector<std::pair<std::string, ParamValue>>&
  entries() const noexcept {
    return entries_;
  }

  /// "a=1 b=2.5 c=on" in insertion order — the scenario-name suffix for
  /// grid-built instances.
  [[nodiscard]] std::string label() const;

 private:
  std::vector<std::pair<std::string, ParamValue>> entries_;
};

/// Cartesian parameter grid: ordered named axes, each a non-empty list
/// of values of one consistent alternative.
class ParamGrid {
 public:
  ParamGrid() = default;
  /// Convenience literal form:
  ///   ParamGrid{{"n", {4, 7, 10}}, {"skew", {0.5, 1.0}}}
  ParamGrid(std::initializer_list<
            std::pair<std::string, std::vector<ParamValue>>>
                axes);

  /// Appends an axis. Throws std::invalid_argument on duplicate names,
  /// empty value lists, or mixed value alternatives within one axis.
  void add_axis(std::string name, std::vector<ParamValue> values);

  [[nodiscard]] bool has_axis(const std::string& name) const noexcept;

  /// Replaces an axis's values, parsing each string with the type of the
  /// axis's current first value. Returns false when the axis does not
  /// exist; throws std::invalid_argument when a value fails to parse or
  /// two values parse equal (the same grid point twice).
  bool override_axis(const std::string& name,
                     const std::vector<std::string>& values);

  /// Number of grid points (product of axis sizes; 1 for an empty grid).
  [[nodiscard]] std::size_t size() const noexcept;

  /// The cartesian product in definition order: the first axis varies
  /// slowest (outermost loop), the last axis fastest. An empty grid
  /// expands to a single empty ParamSet.
  [[nodiscard]] std::vector<ParamSet> expand() const;

  struct Axis {
    std::string name;
    std::vector<ParamValue> values;
  };
  [[nodiscard]] const std::vector<Axis>& axes() const noexcept {
    return axes_;
  }

 private:
  std::vector<Axis> axes_;
};

}  // namespace findep::runtime
