// Fixture: pointer values as ordering keys -> `pointer-order`.
#include <algorithm>
#include <map>
#include <set>
#include <vector>

struct Lane {
  int id = 0;
};

std::map<Lane*, int> bad_keyed_map;
std::set<const Lane*> bad_keyed_set;

void bad_sort(std::vector<Lane*>& lanes) {
  std::sort(lanes.begin(), lanes.end(), [](Lane* a, Lane* b) { return a < b; });
}
