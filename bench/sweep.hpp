// Runner shared by the two simulation benches that stay programs
// (bench_electrical_baseline, bench_fig3_design_space).
//
// bench::run times one whole simulation around the Simulation ctor and
// run() — model code itself never reads a wall clock — and prints one
// progress line per point to stderr, so stdout holds only the tables.
#pragma once

#include <chrono>
#include <iostream>
#include <string>

#include "sim/simulation.hpp"

namespace erapid::bench {

/// Calls `fn` once and prints "<name>  <wall> ms" to stderr.
template <class Fn>
void timed(const std::string& name, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  std::cerr << name << "  " << wall_ms << " ms\n";
}

/// Runs one simulation of `o` under the progress label `name`.
inline sim::SimResult run(const std::string& name, const sim::SimOptions& o) {
  sim::SimResult r;
  timed(name, [&] { r = sim::Simulation(o).run(); });
  return r;
}

}  // namespace erapid::bench
