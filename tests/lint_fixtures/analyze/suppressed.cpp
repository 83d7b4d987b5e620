// Fixture: every hazard below carries an in-place suppression —
// zero findings expected.
#include <unordered_map>  // erapid-analyze: allow(unordered-container)
#include <cstdlib>

// erapid-analyze: allow(unordered-container)
std::unordered_map<int, int> lookup_only;

int seeded_elsewhere() {
  // erapid-analyze: allow(nondet-source)
  return std::rand();
}
