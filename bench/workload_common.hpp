// Shared harness for the workload benches (bench_ml_collectives,
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

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "figure_common.hpp"  // all_modes(), bench_slug(), Point, write_artifact()
#include "sim/simulation.hpp"
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

/// Collects completion-bounded results across one binary's invocations,
/// keyed (workload kind, mode). std::map ordering keeps the JSON artifact
/// deterministic.
class WorkloadStore {
 public:
  void put(const std::string& kind, const std::string& mode, const sim::SimResult& r,
           double wall_ms, const sim::SimOptions& o) {
    points_[{kind, mode}] = {r, wall_ms};
    last_ = o;
  }

  /// Prints one row per workload kind, one column block per mode: the
  /// makespan panel (the headline), then throughput and active power.
  void print(const std::string& title) const {
    if (points_.empty()) return;
    std::vector<std::string> kinds;
    for (const auto& [key, p] : points_) {
      if (std::find(kinds.begin(), kinds.end(), key.first) == kinds.end())
        kinds.push_back(key.first);
    }
    const std::vector<std::string> order = {"NP-NB", "P-NB", "NP-B", "P-B"};
    std::vector<std::string> present;
    for (const auto& m : order) {
      for (const auto& [key, p] : points_) {
        if (key.second == m) {
          present.push_back(m);
          break;
        }
      }
    }

    auto panel = [&](const std::string& name, auto metric) {
      std::cout << "\n== " << title << ": " << name << " ==\n";
      std::vector<std::string> header = {"workload"};
      for (const auto& m : present) header.push_back(m);
      util::TablePrinter t(header);
      for (const auto& kind : kinds) {
        std::vector<std::string> row = {kind};
        for (const auto& m : present) {
          const auto it = points_.find({kind, m});
          row.push_back(it == points_.end()
                            ? "-"
                            : util::TablePrinter::fixed(metric(it->second.result), 3));
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
  }

  /// True only if every recorded point ran its workload to completion.
  [[nodiscard]] bool all_completed() const {
    for (const auto& [key, p] : points_) {
      if (!p.result.workload.completed) return false;
    }
    return true;
  }

  /// Writes the artifact (see write_artifact); points are keyed
  /// (pattern = kind, mode, load = phase_rate, seed).
  void write(const std::string& slug, const std::string& title) const {
    std::vector<sim::BenchPoint> points;
    for (const auto& [key, p] : points_) {
      points.push_back({{{"pattern", key.first},
                         {"mode", key.second},
                         {"load", last_.workload.phase_rate},
                         {"seed", last_.seed}},
                        &p.result,
                        p.wall_ms});
    }
    write_artifact(slug, title, "workload", last_, points);
  }

 private:
  std::map<std::pair<std::string, std::string>, Point> points_;
  sim::SimOptions last_;
};

inline WorkloadStore& workload_store() {
  static WorkloadStore s;
  return s;
}

/// Runs one (kind, mode) point to completion and records it. Wall time is
/// measured here around the whole simulation, never inside the model.
inline void run_workload_point(benchmark::State& state, workload::WorkloadKind kind,
                               const reconfig::NetworkMode& mode) {
  sim::SimResult result;
  double wall_ms = 0.0;
  sim::SimOptions o = workload_bench_options(kind);
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    o.reconfig.mode = mode;
    sim::Simulation s(o);
    result = s.run();
    benchmark::DoNotOptimize(&result);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  }
  state.counters["makespan_cyc"] = static_cast<double>(result.end_cycle);
  state.counters["completed"] = result.workload.completed ? 1.0 : 0.0;
  state.counters["power_mW"] = result.active_power_avg_mw;
  workload_store().put(std::string(workload::kind_name(kind)), std::string(mode.name), result,
                       wall_ms, o);
}

/// Registers the kinds × 4-mode sweep.
inline void register_workloads(const std::vector<workload::WorkloadKind>& kinds) {
  for (const auto kind : kinds) {
    for (const auto& mode : all_modes()) {
      const std::string name =
          std::string(workload::kind_name(kind)) + "/" + std::string(mode.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind, mode](benchmark::State& st) { run_workload_point(st, kind, mode); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// Standard main body for a workload bench. Exits non-zero if any point
/// failed to complete within its horizon, so CI catches deadlocks even
/// without the JSON gate.
inline int workload_main(int argc, char** argv,
                         const std::vector<workload::WorkloadKind>& kinds,
                         const std::string& title) {
  benchmark::Initialize(&argc, argv);
  register_workloads(kinds);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  workload_store().print(title);
  workload_store().write(bench_slug(title), title);
  if (!workload_store().all_completed()) {
    std::cerr << "\nbench: at least one workload point hit its horizon without "
                 "completing\n";
    return 1;
  }
  return 0;
}

}  // namespace erapid::bench
