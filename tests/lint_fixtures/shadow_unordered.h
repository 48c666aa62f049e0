// Fixture: a header declaring an unordered `index_`. shadow_ordered.h
// includes it, so the name reaches shadow_ordered.cpp through the include
// closure, the way an unordered `index_` in a widely included header
// reaches most of the real tree.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace fixture {

struct Tree {
  std::unordered_map<std::uint64_t, int> index_;
};

}  // namespace fixture
