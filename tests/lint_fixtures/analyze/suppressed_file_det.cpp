// Fixture: file-wide suppression — zero findings expected.
// erapid-analyze: allow-file(unordered-container)
#include <unordered_map>
#include <unordered_set>

std::unordered_map<int, int> a;
std::unordered_set<int> b;
