// Fixture: every line here should trip `unordered-container`.
#include <unordered_map>
#include <unordered_set>

struct BadState {
  std::unordered_map<int, double> by_lane;
  std::unordered_set<int> seen;
};
