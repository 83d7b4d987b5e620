// Ablation: the DPM/DBR thresholds. §3.1/§4.2 fix L_min=0.7, L_max=0.9,
// B_max=0.3 for P-B and L_max=0.7, B_max=0 for P-NB without sensitivity
// data; this bench sweeps (L_max, B_max) on P-B under uniform traffic and
// reports the power/throughput frontier, plus an L_min sweep.
#include <iostream>
#include <map>
#include <string>
#include <tuple>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

using Key = std::tuple<double, double, double>;  // l_min, l_max, b_max

void print_ablation(const std::map<Key, sim::SimResult>& results) {
  std::cout << "\n== Ablation: DPM/DBR thresholds (P-B, uniform @ 0.5 N_c) ==\n";
  util::TablePrinter t({"L_min", "L_max", "B_max", "thru (xN_c)", "latency (cyc)",
                        "power (mW)"});
  for (const auto& [key, r] : results) {
    const auto [l_min, l_max, b_max] = key;
    t.row_values(util::TablePrinter::fixed(l_min, 2), util::TablePrinter::fixed(l_max, 2),
                 util::TablePrinter::fixed(b_max, 2),
                 util::TablePrinter::fixed(r.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.latency_avg, 1),
                 util::TablePrinter::fixed(r.power_avg_mw, 0));
  }
  t.print(std::cout);
  std::cout << "(paper operating point: L_min 0.7, L_max 0.9, B_max 0.3)\n";
}

}  // namespace

int main() {
  std::map<Key, sim::SimResult> results;
  auto point = [&](double l_min, double l_max, double b_max) {
    sim::SimOptions o;  // R(1,8,8)
    o.pattern = traffic::PatternKind::Uniform;
    o.load_fraction = 0.5;
    o.warmup_cycles = 10000;
    o.measure_cycles = 15000;
    o.drain_limit = 50000;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    o.reconfig.mode.dpm.l_min = l_min;
    o.reconfig.mode.dpm.l_max = l_max;
    o.reconfig.mode.dpm.b_max = b_max;
    o.reconfig.mode.dbr.b_max = b_max;
    const std::string name = "thr/lmin=" + util::TablePrinter::fixed(l_min, 2) +
                             "/lmax=" + util::TablePrinter::fixed(l_max, 2) +
                             "/bmax=" + util::TablePrinter::fixed(b_max, 2);
    results[{l_min, l_max, b_max}] = bench::run(name, o).result;
  };
  // L_max / B_max grid at the paper's L_min.
  for (double l_max : {0.5, 0.7, 0.9}) {
    for (double b_max : {0.1, 0.3, 0.5}) point(0.7, l_max, b_max);
  }
  // L_min sweep at the paper's (L_max, B_max).
  for (double l_min : {0.3, 0.5, 0.7}) point(l_min, 0.9, 0.3);
  print_ablation(results);
  return 0;
}
