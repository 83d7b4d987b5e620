// Runner shared by the simulation sweep benches.
//
// Every sweep bench is a plain program: it loops over its points, runs each
// one through bench::run (one whole simulation, timed here around the
// Simulation ctor and run() — model code itself never reads a wall clock),
// keeps the results in a local map, then prints its tables on stdout and,
// where it has one, writes its erapid-bench-1 artifact. One progress line
// per point goes to stderr, so stdout holds only the tables.
//
// Setting ERAPID_BENCH_JSON=<dir> makes write_artifact put BENCH_<slug>.json
// there; ERAPID_GIT_REV stamps the producing revision.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sim/report.hpp"
#include "sim/simulation.hpp"

namespace erapid::bench {

/// One recorded point: its result and the wall time the runner measured.
struct Point {
  sim::SimResult result;
  double wall_ms = 0.0;
};

/// Calls `fn` once, prints "<name>  <wall> ms" to stderr and returns the
/// wall time in milliseconds.
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  std::cerr << name << "  " << wall_ms << " ms\n";
  return wall_ms;
}

/// Runs one simulation of `o` under the progress label `name`.
inline Point run(const std::string& name, const sim::SimOptions& o) {
  Point p;
  p.wall_ms = timed(name, [&] { p.result = sim::Simulation(o).run(); });
  return p;
}

/// Writes BENCH_<slug>.json (schema erapid-bench-1) into $ERAPID_BENCH_JSON,
/// stamped with $ERAPID_GIT_REV; does nothing when the directory is unset
/// or there are no points. `last` holds the options of the last point run.
inline void write_artifact(const std::string& slug, const std::string& bench,
                           const std::string& pattern, const sim::SimOptions& last,
                           const std::vector<sim::BenchPoint>& points) {
  const char* dir = std::getenv("ERAPID_BENCH_JSON");
  if (dir == nullptr || *dir == '\0' || points.empty()) return;
  const char* rev = std::getenv("ERAPID_GIT_REV");
  const std::string path = std::string(dir) + "/BENCH_" + slug + ".json";
  sim::write_bench_json(path, bench, pattern, rev != nullptr ? rev : "unknown", last, points);
  std::cout << "\nbench JSON written to " << path << "\n";
}

}  // namespace erapid::bench
