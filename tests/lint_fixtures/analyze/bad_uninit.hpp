// Fixture: uninitialized scalar members -> `uninit-member`.
#pragma once
#include <cstdint>

struct BadConfig {
  double threshold;
  std::uint32_t window;
  bool enabled;
  int* sink;
};
