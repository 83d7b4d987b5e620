// Ablation: the reconfiguration window R_w. §3.1: "If R_w is too small,
// the bit rates will be tuned too often, again incurring excess delay
// penalty. If R_w is too large, the bit rates cannot scale to accommodate
// large fluctuations. We use network simulation to determine an optimum
// value of R_w to be 2000 simulation cycles."
//
// We sweep R_w on P-B under shuffle traffic (adversarial enough that both
// DPM and DBR matter) and report throughput, power, and the DVS transition
// count (the "excess delay penalty" driver).
#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

void print_ablation(const std::map<std::uint64_t, sim::SimResult>& results) {
  std::cout << "\n== Ablation: reconfiguration window R_w (P-B, shuffle @ 0.6 N_c) ==\n";
  util::TablePrinter t({"R_w (cycles)", "thru (xN_c)", "latency (cyc)", "power (mW)",
                        "DVS changes", "lane moves"});
  for (const auto& [rw, r] : results) {
    t.row_values(rw, util::TablePrinter::fixed(r.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.latency_avg, 1),
                 util::TablePrinter::fixed(r.power_avg_mw, 0), r.control.level_changes,
                 r.control.lane_grants);
  }
  t.print(std::cout);
  std::cout << "(paper: optimum R_w = 2000 cycles)\n";
}

}  // namespace

int main() {
  std::map<std::uint64_t, sim::SimResult> results;
  for (Cycle rw : {250u, 500u, 1000u, 2000u, 4000u, 8000u, 16000u}) {
    sim::SimOptions o;  // R(1,8,8)
    o.pattern = traffic::PatternKind::PerfectShuffle;
    o.load_fraction = 0.6;
    o.warmup_cycles = 12000;
    o.measure_cycles = 16000;
    o.drain_limit = 50000;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    o.reconfig.window = rw;
    results[rw] = bench::run("rw/" + std::to_string(rw), o).result;
  }
  print_ablation(results);
  return 0;
}
