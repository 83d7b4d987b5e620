// Shared body of the figure-reproduction benches.
//
// Each Fig. 5 / Fig. 6 panel in the paper plots one metric (throughput,
// latency, power) against offered load 0.1..0.9 × N_c for the four network
// configurations NP-NB / P-NB / NP-B / P-B on one traffic pattern. A
// figure bench runs one simulation per (mode, load) point (see sweep.hpp),
// then prints the three panels as aligned tables — the same series the
// paper reports — and writes BENCH_<slug>.json when ERAPID_BENCH_JSON is
// set: one point per (mode, load) with the wall time of the whole point.
#pragma once

#include <cctype>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hpp"
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

/// Runs the full 4-mode × 9-load sweep for one pattern, prints the paper's
/// panels and writes the artifact (points keyed (mode, load)).
inline int figure_main(traffic::PatternKind pattern, const std::string& figure) {
  const std::string pattern_str(traffic::pattern_name(pattern));
  std::map<std::pair<std::string, double>, Point> points;
  sim::SimOptions o = figure_options();
  o.pattern = pattern;
  for (const auto& mode : all_modes()) {
    for (double load : default_loads()) {
      o.load_fraction = load;
      o.reconfig.mode = mode;
      points[{std::string(mode.name), load}] =
          run(pattern_str + "/" + std::string(mode.name) + "/load=" +
                  util::TablePrinter::fixed(load, 1),
              o);
    }
  }

  auto panel = [&](const std::string& title, auto metric) {
    std::cout << "\n== " << figure << " (" << pattern_str << "): " << title << " ==\n";
    std::vector<std::string> header = {"load(xN_c)"};
    for (const auto& m : all_modes()) header.emplace_back(m.name);
    util::TablePrinter t(header);
    for (double load : default_loads()) {
      std::vector<std::string> row = {util::TablePrinter::fixed(load, 1)};
      for (const auto& m : all_modes()) {
        const auto& r = points.at({std::string(m.name), load}).result;
        row.push_back(util::TablePrinter::fixed(metric(r), 3));
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
  };
  panel("accepted throughput (fraction of N_c)",
        [](const sim::SimResult& r) { return r.accepted_fraction; });
  panel("average latency (cycles)", [](const sim::SimResult& r) { return r.latency_avg; });
  panel("active optical power (mW) — the paper's power panel",
        [](const sim::SimResult& r) { return r.active_power_avg_mw; });
  panel("total optical power incl. lit-idle lanes (mW)",
        [](const sim::SimResult& r) { return r.power_avg_mw; });

  std::vector<sim::BenchPoint> artifact;
  for (const auto& [key, p] : points) {
    artifact.push_back({{{"mode", key.first}, {"load", key.second}}, &p.result, p.wall_ms});
  }
  write_artifact(bench_slug(figure), figure, pattern_str, o, artifact);
  return 0;
}

}  // namespace erapid::bench
