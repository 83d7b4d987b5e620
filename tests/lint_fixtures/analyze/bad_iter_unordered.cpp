// Fixture: range-for over an unordered container -> iter-unordered.
// The declaration itself is unordered-container's (bad_unordered.cpp).
// erapid-analyze: allow-file(unordered-container)
#include <unordered_map>

int sum_values() {
  std::unordered_map<int, int> counts;
  int total = 0;
  for (const auto& kv : counts) total += kv.second;
  return total;
}
