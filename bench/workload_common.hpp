// Shared body of the workload benches (bench_ml_collectives,
// bench_hpc_kernels).
//
// Unlike the figure benches — which sweep offered load for one traffic
// pattern — a workload bench sweeps *workload kinds* across the four
// network configurations NP-NB / P-NB / NP-B / P-B. Every point is one
// completion-bounded run: the schedule injects a fixed byte volume and the
// simulation ends when the last packet resolves, so the headline metric is
// the makespan (completion cycle), not a steady-state throughput. Points
// are keyed (pattern = workload kind, mode, load = phase_rate, seed); the
// completion fields come with the erapid-bench-1 format whenever a
// workload ran.
//
// ERAPID_BENCH_JSON=<dir> writes BENCH_<slug>.json there (see
// write_artifact); ERAPID_BENCH_TINY=1 shrinks the volume
// for sanitizer CI runs (tiny artifacts are NOT comparable to committed
// full-size ones — CI compares tiny-vs-tiny self-runs only).
#pragma once

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "figure_common.hpp"  // all_modes(), bench_slug()
#include "sweep.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

namespace erapid::bench {

/// True when ERAPID_BENCH_TINY=1: one episode of minimal volume, for
/// ASan/UBSan smoke runs where full volumes would dominate CI time.
inline bool tiny_bench() {
  const char* v = std::getenv("ERAPID_BENCH_TINY");
  return v != nullptr && std::string(v) == "1";
}

/// Baseline options for every workload bench point: a 16-node R(1,4,4)
/// system (power-of-two node count, required by ptrans/fft) at a phase
/// rate high enough to stress reconfiguration without saturating.
inline sim::SimOptions workload_bench_options(workload::WorkloadKind kind) {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.seed = 1;
  o.workload.kind = kind;
  o.workload.episodes = tiny_bench() ? 1 : 2;
  o.workload.volume_packets = tiny_bench() ? 2 : 8;
  o.workload.phase_rate = 0.7;
  o.workload.horizon_cycles = 400000;
  return o;
}

/// Runs the kinds × 4-mode sweep to completion, prints one row per kind
/// and one column per mode (the makespan panel, the headline, then worst
/// phase, throughput and active power) and writes the artifact. Exits
/// non-zero if any point failed to complete within its horizon, so CI
/// catches deadlocks even without the JSON gate.
inline int workload_main(const std::vector<workload::WorkloadKind>& kinds,
                         const std::string& title) {
  // std::map ordering keeps the JSON artifact deterministic.
  std::map<std::pair<std::string, std::string>, Point> points;
  std::set<std::string> rows;  // kind names, printed in name order
  sim::SimOptions o;
  for (const auto kind : kinds) {
    const std::string kind_str(workload::kind_name(kind));
    rows.insert(kind_str);
    o = workload_bench_options(kind);
    for (const auto& mode : all_modes()) {
      o.reconfig.mode = mode;
      points[{kind_str, std::string(mode.name)}] =
          run(kind_str + "/" + std::string(mode.name), o);
    }
  }

  auto panel = [&](const std::string& name, auto metric) {
    std::cout << "\n== " << title << ": " << name << " ==\n";
    std::vector<std::string> header = {"workload"};
    for (const auto& m : all_modes()) header.emplace_back(m.name);
    util::TablePrinter t(header);
    for (const auto& kind : rows) {
      std::vector<std::string> row = {kind};
      for (const auto& m : all_modes()) {
        const auto& r = points.at({kind, std::string(m.name)}).result;
        row.push_back(util::TablePrinter::fixed(metric(r), 3));
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
  };
  panel("makespan (cycles to completion; horizon if incomplete)",
        [](const sim::SimResult& r) { return static_cast<double>(r.end_cycle); });
  panel("worst phase (cycles)", [](const sim::SimResult& r) {
    return static_cast<double>(r.workload.worst_phase_cycles);
  });
  panel("accepted throughput (fraction of N_c over the makespan)",
        [](const sim::SimResult& r) { return r.accepted_fraction; });
  panel("active optical power (mW)",
        [](const sim::SimResult& r) { return r.active_power_avg_mw; });

  std::vector<sim::BenchPoint> artifact;
  bool all_completed = true;
  for (const auto& [key, p] : points) {
    artifact.push_back({{{"pattern", key.first},
                         {"mode", key.second},
                         {"load", o.workload.phase_rate},
                         {"seed", o.seed}},
                        &p.result,
                        p.wall_ms});
    all_completed = all_completed && p.result.workload.completed;
  }
  write_artifact(bench_slug(title), title, "workload", o, artifact);
  if (!all_completed) {
    std::cerr << "\nbench: at least one workload point hit its horizon without "
                 "completing\n";
    return 1;
  }
  return 0;
}

}  // namespace erapid::bench
