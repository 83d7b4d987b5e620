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
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hpp"
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

std::string cap_label(double cap) {
  return cap <= 0.0 ? std::string("uncapped")
                    : util::TablePrinter::fixed(cap, 0) + "mW";
}

using Results = std::map<std::pair<double, double>, bench::Point>;  // (cap, load)

void print_summary(const Results& results) {
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
        const double thru = results.at({c, load}).result.accepted_fraction;
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
      const auto& r = results.at({c, load}).result;
      const auto& st = r.resilience.value();
      d.row_values(util::TablePrinter::fixed(load, 1), cap_label(c),
                   std::string(resilience::stage_name(st.peak_stage)), st.steps_down,
                   st.lanes_slept, st.lanes_shed,
                   util::TablePrinter::fixed(r.power_avg_mw, 2), st.suppressed_violations);
    }
  }
  d.print(std::cout);
}

}  // namespace

int main() {
  Results results;
  sim::SimOptions o;
  for (double c : caps()) {
    for (double load : loads()) {
      o = capped_options(c, load);
      results[{c, load}] = bench::run(
          "brownout/cap=" + cap_label(c) + "/load=" + util::TablePrinter::fixed(load, 1), o);
    }
  }
  print_summary(results);
  std::vector<sim::BenchPoint> points;
  for (const auto& [key, p] : results) {
    points.push_back(
        {{{"mode", "P-B"}, {"cap_mw", key.first}, {"load", key.second}}, &p.result, p.wall_ms});
  }
  bench::write_artifact("brownout", "Brownout ladder", "uniform", o, points);
  return 0;
}
