// Fixture: wall-clock / entropy sources -> `nondet-source`.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

unsigned bad_entropy() {
  std::random_device rd;
  return rd() + static_cast<unsigned>(std::rand());
}

long bad_wall_clock() {
  const auto t = time(nullptr);
  const auto now = std::chrono::steady_clock::now();
  (void)now;
  return static_cast<long>(t) + clock();
}
