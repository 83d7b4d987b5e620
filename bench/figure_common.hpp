// Shared harness for the figure-reproduction benches.
//
// Each Fig. 5 / Fig. 6 panel in the paper plots one metric (throughput,
// latency, power) against offered load 0.1..0.9 × N_c for the four network
// configurations NP-NB / P-NB / NP-B / P-B on one traffic pattern. A
// figure bench registers one google-benchmark per (mode, load) point
// (Iterations(1): the simulation *is* the measured unit of work), collects
// the SimResults, and finally prints the three panels as aligned tables —
// the same series the paper reports.
// Setting ERAPID_BENCH_JSON=<dir> additionally writes a machine-readable
// BENCH_<slug>.json artifact there (schema erapid-bench-1, written by
// sim/report): one point per (mode, load) with the wall-clock runtime of
// the whole point measured here in the harness — never inside the
// simulator, which must stay wall-clock free. CI uploads these artifacts;
// ERAPID_GIT_REV stamps the producing revision.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

namespace erapid::bench {

inline const std::vector<double>& default_loads() {
  static const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                            0.6, 0.7, 0.8, 0.9};
  return loads;
}

inline std::vector<reconfig::NetworkMode> all_modes() {
  return {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::p_nb(),
          reconfig::NetworkMode::np_b(), reconfig::NetworkMode::p_b()};
}

/// One recorded point: its result and the wall time the harness measured.
struct Point {
  sim::SimResult result;
  double wall_ms = 0.0;
};

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

/// Collects results across benchmark invocations of one binary.
class FigureStore {
 public:
  void put(const std::string& mode, double load, const sim::SimResult& r, double wall_ms,
           const sim::SimOptions& o) {
    points_[{mode, load}] = {r, wall_ms};
    last_ = o;
  }

  /// Prints the paper's three panels (throughput, latency, power).
  void print(const std::string& figure, const std::string& pattern) const {
    if (points_.empty()) return;
    std::vector<std::string> modes;
    std::vector<double> loads;
    for (const auto& [key, p] : points_) {
      if (std::find(modes.begin(), modes.end(), key.first) == modes.end())
        modes.push_back(key.first);
      if (std::find(loads.begin(), loads.end(), key.second) == loads.end())
        loads.push_back(key.second);
    }
    std::sort(loads.begin(), loads.end());
    // Keep the canonical mode order.
    std::vector<std::string> order = {"NP-NB", "P-NB", "NP-B", "P-B"};
    std::vector<std::string> present;
    for (const auto& m : order) {
      if (std::find(modes.begin(), modes.end(), m) != modes.end()) present.push_back(m);
    }

    auto panel = [&](const std::string& title, auto metric) {
      std::cout << "\n== " << figure << " (" << pattern << "): " << title << " ==\n";
      std::vector<std::string> header = {"load(xN_c)"};
      for (const auto& m : present) header.push_back(m);
      util::TablePrinter t(header);
      for (double load : loads) {
        std::vector<std::string> row = {util::TablePrinter::fixed(load, 1)};
        for (const auto& m : present) {
          const auto it = points_.find({m, load});
          row.push_back(it == points_.end()
                            ? "-"
                            : util::TablePrinter::fixed(metric(it->second.result), 3));
        }
        t.row(std::move(row));
      }
      t.print(std::cout);
    };

    panel("accepted throughput (fraction of N_c)",
          [](const sim::SimResult& r) { return r.accepted_fraction; });
    panel("average latency (cycles)",
          [](const sim::SimResult& r) { return r.latency_avg; });
    panel("active optical power (mW) — the paper's power panel",
          [](const sim::SimResult& r) { return r.active_power_avg_mw; });
    panel("total optical power incl. lit-idle lanes (mW)",
          [](const sim::SimResult& r) { return r.power_avg_mw; });
  }

  /// Writes the artifact (see write_artifact); points are keyed (mode, load).
  void write(const std::string& slug, const std::string& figure,
             const std::string& pattern) const {
    std::vector<sim::BenchPoint> points;
    for (const auto& [key, p] : points_) {
      points.push_back({{{"mode", key.first}, {"load", key.second}}, &p.result, p.wall_ms});
    }
    write_artifact(slug, figure, pattern, last_, points);
  }

 private:
  std::map<std::pair<std::string, double>, Point> points_;
  sim::SimOptions last_;
};

inline FigureStore& store() {
  static FigureStore s;
  return s;
}

/// Baseline options used by every figure bench: the paper's 64-node
/// R(1,8,8) system, moderately sized measurement windows.
inline sim::SimOptions figure_options() {
  sim::SimOptions o;           // R(1,8,8) defaults
  o.warmup_cycles = 10000;     // ≥ several reconfiguration windows
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  o.seed = 1;
  return o;
}

/// Runs one (mode, load) point and records it. Wall time is measured here,
/// around the whole simulation — model code itself never reads a wall clock.
inline void run_point(benchmark::State& state, traffic::PatternKind pattern,
                      const reconfig::NetworkMode& mode, double load) {
  sim::SimResult result;
  double wall_ms = 0.0;
  sim::SimOptions o = figure_options();
  o.pattern = pattern;
  o.load_fraction = load;
  o.reconfig.mode = mode;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    sim::Simulation s(o);
    result = s.run();
    benchmark::DoNotOptimize(&result);  // lvalue-double DoNotOptimize miscompiles on this gcc
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  }
  state.counters["thru_xNc"] = result.accepted_fraction;
  state.counters["lat_cyc"] = result.latency_avg;
  state.counters["power_mW"] = result.power_avg_mw;
  store().put(std::string(mode.name), load, result, wall_ms, o);
}

/// Registers the full 4-mode × 9-load sweep for one pattern.
inline void register_figure(traffic::PatternKind pattern) {
  for (const auto& mode : all_modes()) {
    for (double load : default_loads()) {
      const std::string name = std::string(traffic::pattern_name(pattern)) + "/" +
                               std::string(mode.name) + "/load=" +
                               util::TablePrinter::fixed(load, 1);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [pattern, mode, load](benchmark::State& st) { run_point(st, pattern, mode, load); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// Filename-safe slug for the JSON artifact name.
inline std::string bench_slug(const std::string& figure) {
  std::string slug;
  for (char c : figure) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Standard main body for a figure bench.
inline int figure_main(int argc, char** argv, traffic::PatternKind pattern,
                       const std::string& figure) {
  benchmark::Initialize(&argc, argv);
  register_figure(pattern);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string pattern_str(traffic::pattern_name(pattern));
  store().print(figure, pattern_str);
  store().write(bench_slug(figure), figure, pattern_str);
  return 0;
}

}  // namespace erapid::bench
