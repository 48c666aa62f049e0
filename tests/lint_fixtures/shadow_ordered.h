// Fixture: a class declaring its own ordered `index_` while including a
// header whose unordered member has the same name.
#pragma once

#include <map>

#include "shadow_unordered.h"

namespace fixture {

class Catalog {
 public:
  int total() const;

 private:
  std::map<int, int> index_;
  Tree tree_;
};

}  // namespace fixture
