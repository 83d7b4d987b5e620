// Fixture: deterministic idioms — zero findings expected.
#pragma once
#include <cstdint>
#include <map>
#include <set>
#include <vector>

struct GoodConfig {
  double threshold = 0.7;
  std::uint32_t window = 2000;
  bool enabled = true;
  int* sink = nullptr;
};

struct GoodState {
  std::map<std::uint64_t, double> by_lane;  // ordered, id-keyed
  std::set<std::uint32_t> seen;
  std::vector<int> dense;
};
