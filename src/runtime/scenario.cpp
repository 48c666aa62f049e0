#include "runtime/scenario.h"

#include <utility>

#include "support/assert.h"

namespace findep::runtime {

Scenario::Scenario(std::string name, RunFn run)
    : name_(std::move(name)), run_(std::move(run)) {
  FINDEP_REQUIRE(run_ != nullptr);
}

std::string Scenario::family() const {
  const std::size_t slash = name_.find('/');
  return slash == std::string::npos ? name_ : name_.substr(0, slash);
}

}  // namespace findep::runtime
