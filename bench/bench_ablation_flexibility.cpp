// Extension bench: limited bandwidth reconfigurability (the paper's
// conclusion sketches "cost-effective design alternatives that provide
// limited flexibility for reconfigurability may reduce performance, but
// lower the cost of the network"). We cap the lanes one flow may hold
// (max_lanes_per_flow) and sweep the cap on complement traffic — the
// pattern that exercises full flexibility hardest.
#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

void print_ablation(const std::map<std::uint32_t, sim::SimResult>& results) {
  std::cout << "\n== Extension: limited reconfiguration flexibility "
               "(P-B, complement @ 0.6 N_c) ==\n";
  util::TablePrinter t({"max lanes/flow", "thru (xN_c)", "latency (cyc)",
                        "active power (mW)", "lane grants"});
  for (const auto& [cap, r] : results) {
    t.row_values(cap == 0 ? "unlimited" : std::to_string(cap),
                 util::TablePrinter::fixed(r.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.latency_avg, 1),
                 util::TablePrinter::fixed(r.active_power_avg_mw, 0),
                 r.control.lane_grants);
  }
  t.print(std::cout);
  std::cout << "(throughput should scale ~linearly with the cap until it covers "
               "the offered load; a transmitter with fewer laser ports is cheaper)\n";
}

}  // namespace

int main() {
  std::map<std::uint32_t, sim::SimResult> results;
  for (std::uint32_t cap : {1u, 2u, 3u, 4u, 6u, 0u}) {
    sim::SimOptions o;  // R(1,8,8)
    o.pattern = traffic::PatternKind::Complement;
    o.load_fraction = 0.6;
    o.warmup_cycles = 10000;
    o.measure_cycles = 15000;
    o.drain_limit = 50000;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    o.reconfig.mode.dbr.max_lanes_per_flow = cap;
    results[cap] =
        bench::run("flex/cap=" + (cap ? std::to_string(cap) : std::string("inf")), o).result;
  }
  print_ablation(results);
  return 0;
}
