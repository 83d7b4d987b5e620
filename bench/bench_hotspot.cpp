// Extension bench: hotspot traffic. A fraction of every node's packets
// target one hot node (its board becomes the contended destination) — the
// classic shared-lock / reduction-root scenario. Unlike complement, the
// congestion concentrates on the *receive* side of a single board, so the
// DBR allocator must move many boards' lanes toward one coupler.
//
// Series: hotspot fraction sweep at fixed 0.4 x N_c offered, four modes.
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

using Results = std::map<std::pair<std::string, double>, sim::SimResult>;  // (mode, fraction)

void print_tables(const Results& results) {
  std::cout << "\n== Extension: hotspot traffic @ 0.4 N_c (accepted xN_c | active mW) ==\n";
  util::TablePrinter t({"hotspot fraction", "NP-NB", "NP-B", "P-B"});
  for (double f : {0.05, 0.1, 0.2, 0.4}) {
    auto cell = [&](const char* m) {
      const auto& r = results.at({m, f});
      return util::TablePrinter::fixed(r.accepted_fraction, 3) + " | " +
             util::TablePrinter::fixed(r.active_power_avg_mw, 0);
    };
    t.row_values(util::TablePrinter::fixed(f, 2), cell("NP-NB"), cell("NP-B"),
                 cell("P-B"));
  }
  t.print(std::cout);
  std::cout << "(the receive-side bottleneck at the hot board limits the DBR gain:\n"
               " lanes can be added but the hot node's ejection channel cannot)\n";
}

}  // namespace

int main() {
  Results results;
  for (const auto& mode : {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::np_b(),
                           reconfig::NetworkMode::p_b()}) {
    for (double f : {0.05, 0.1, 0.2, 0.4}) {
      sim::SimOptions o;  // R(1,8,8)
      o.pattern = traffic::PatternKind::Hotspot;
      o.load_fraction = 0.4;
      o.warmup_cycles = 10000;
      o.measure_cycles = 15000;
      o.drain_limit = 50000;
      o.reconfig.mode = mode;
      o.hotspot_fraction = f;
      const std::string name =
          "hotspot/" + std::string(mode.name) + "/f=" + util::TablePrinter::fixed(f, 2);
      results[{std::string(mode.name), f}] = bench::run(name, o).result;
    }
  }
  print_tables(results);
  return 0;
}
