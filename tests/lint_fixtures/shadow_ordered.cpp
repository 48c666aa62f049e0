// Fixture: walking the class's own ordered `index_` is clean, though a
// header reached through the class header declares an unordered `index_`.
#include "shadow_ordered.h"

namespace fixture {

int Catalog::total() const {
  int total = 0;
  for (const auto& [key, value] : index_) total += value;  // ordered
  return total;
}

}  // namespace fixture
