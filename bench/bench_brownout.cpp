// Brownout ladder sweep: what a power cap costs in accepted throughput as
// the degradation controller trades lanes for headroom.
//
// For each (cap, load) point the monitor plane arms `power.cap` with
// fail-fast ON and the controller answers with the shed-capable brownout
// ladder — exactly the configuration that aborts the run when no policy is
// installed. cap=0 is the uncapped baseline (no monitors, no controller),
// so the table reads as throughput retention under progressively tighter
// caps alongside how deep the ladder had to go to hold each one.
//
// Setting ERAPID_BENCH_JSON=<dir> writes BENCH_brownout.json there
// (schema erapid-bench-1, see write_artifact); points are keyed (mode,
// cap_mw, load) and carry the resilience block compare_runs.py gates.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "figure_common.hpp"  // Point, write_artifact()
#include "sim/simulation.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

const std::vector<double>& loads() {
  static const std::vector<double> l = {0.3, 0.5, 0.7};
  return l;
}

// Power caps in mW; 0 means uncapped baseline. The P-B small system peaks
// a bit over 500 mW at load 0.5, so 200 forces a partial descent and 100
// pushes the ladder through sleep into shedding.
const std::vector<double>& caps() {
  static const std::vector<double> c = {0.0, 400.0, 200.0, 100.0};
  return c;
}

sim::SimOptions base_options(double load) {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = load;
  o.seed = 1;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.drain_limit = 60000;
  return o;
}

sim::SimOptions capped_options(double cap, double load) {
  sim::SimOptions o = base_options(load);
  if (cap <= 0.0) return o;  // uncapped baseline: no monitors, no ladder
  o.obs.enabled = true;
  o.obs.monitor_fail_fast = true;
  o.obs.monitors.power_cap_mw = cap;
  o.degrade.power_cap = resilience::ResponsePolicy::Shed;
  o.degrade.cooldown_cycles = 1000;
  // Recovery frozen so the point stays brownout-held to its end; the sweep
  // measures the cost of *holding* each cap, not the recovery arc.
  o.degrade.recover_cycles = 500000;
  o.degrade.shed_step = 2;
  return o;
}

sim::SimOptions& last_options() {
  static sim::SimOptions o;
  return o;
}

std::map<std::pair<double, double>, bench::Point>& store() {
  static std::map<std::pair<double, double>, bench::Point> s;
  return s;
}

void run_point(benchmark::State& state, double cap, double load) {
  sim::SimResult result;
  double wall_ms = 0.0;
  const sim::SimOptions o = capped_options(cap, load);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::Simulation s(o);
    result = s.run();
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    benchmark::DoNotOptimize(&result);
  }
  state.counters["thru_xNc"] = result.accepted_fraction;
  state.counters["power_mW"] = result.power_avg_mw;
  state.counters["steps_down"] = static_cast<double>(result.resilience.steps_down);
  state.counters["lanes_shed"] = static_cast<double>(result.resilience.lanes_shed);
  store()[{cap, load}] = bench::Point{result, wall_ms};
  last_options() = o;
}

std::string cap_label(double cap) {
  return cap <= 0.0 ? std::string("uncapped")
                    : util::TablePrinter::fixed(cap, 0) + "mW";
}

void print_summary() {
  if (store().empty()) return;

  std::cout << "\n== Brownout (uniform, P-B): throughput under a power cap ==\n";
  {
    std::vector<std::string> header = {"load(xN_c)"};
    for (double c : caps()) header.push_back(cap_label(c));
    header.push_back("retention@tightest");
    util::TablePrinter t(header);
    for (double load : loads()) {
      std::vector<std::string> row = {util::TablePrinter::fixed(load, 1)};
      double base_thru = 0.0, worst = 0.0;
      for (double c : caps()) {
        const auto it = store().find({c, load});
        if (it == store().end()) {
          row.push_back("-");
          continue;
        }
        const double thru = it->second.result.accepted_fraction;
        row.push_back(util::TablePrinter::fixed(thru, 3));
        if (c <= 0.0) base_thru = thru;
        worst = thru;
      }
      row.push_back(base_thru > 0 ? util::TablePrinter::fixed(worst / base_thru, 3)
                                  : "-");
      t.row(std::move(row));
    }
    t.print(std::cout);
  }

  std::cout << "\n== Ladder depth and power held per cap ==\n";
  util::TablePrinter d({"load(xN_c)", "cap", "peak stage", "steps down",
                        "lanes slept", "lanes shed", "power(mW)", "suppressed"});
  for (double load : loads()) {
    for (double c : caps()) {
      if (c <= 0.0) continue;
      const auto it = store().find({c, load});
      if (it == store().end()) continue;
      const auto& r = it->second.result;
      d.row_values(util::TablePrinter::fixed(load, 1), cap_label(c),
                   r.resilience.peak_stage, r.resilience.steps_down,
                   r.resilience.lanes_slept, r.resilience.lanes_shed,
                   util::TablePrinter::fixed(r.power_avg_mw, 2),
                   r.resilience.suppressed_violations);
    }
  }
  d.print(std::cout);
}

void write_json() {
  std::vector<sim::BenchPoint> points;
  for (const auto& [key, p] : store()) {
    points.push_back(
        {{{"mode", "P-B"}, {"cap_mw", key.first}, {"load", key.second}}, &p.result, p.wall_ms});
  }
  bench::write_artifact("brownout", "Brownout ladder", "uniform", last_options(), points);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (double c : caps()) {
    for (double load : loads()) {
      const std::string name = "brownout/cap=" + cap_label(c) +
                               "/load=" + util::TablePrinter::fixed(load, 1);
      benchmark::RegisterBenchmark(
          name.c_str(), [c, load](benchmark::State& st) { run_point(st, c, load); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  write_json();
  return 0;
}
