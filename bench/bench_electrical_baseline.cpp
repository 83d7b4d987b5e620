// Baseline bench: E-RAPID vs an electrical-interconnect equivalent.
//
// §4.2 opens with "The performance of E-RAPID was compared to other
// electrical networks" without printing that comparison; this bench
// supplies it. The electrical baseline reuses the same topology and
// router microarchitecture but replaces each optical lane with a
// fixed-rate electrical board-to-board SerDes link:
//
//   * 6.4 Gb/s (the paper's own electrical channel rate: 16 bit @ 400 MHz),
//   * no DVS levels (all levels pinned to the same rate; DLS disabled),
//   * link power 128 mW — the ~20 mW/Gb/s ballpark of early-2000s
//     electrical SerDes links used by the DVS-link literature the paper
//     cites (Shang et al., HPCA'03). An assumption, stated, and easy to
//     override.
//
// Shape to check: optics win on both bandwidth (5 Gb/s/λ with lane
// aggregation) and power (43 mW vs 128 mW per link), and the gap widens
// with reconfiguration on adversarial traffic — the motivation in §1.
#include <iostream>
#include <map>
#include <string>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

power::LinkPowerModel electrical_model() {
  power::LinkPowerModel m;
  // One fixed rate/voltage/power at every level: DVS becomes a no-op and
  // every lane serializes at the electrical channel rate.
  for (auto l : {power::PowerLevel::Low, power::PowerLevel::Mid, power::PowerLevel::High}) {
    m.set_power_mw(l, units::Milliwatts{128.0});
    m.set_bitrate_gbps(l, units::GbitsPerSec{6.4});
    m.set_supply_v(l, units::Volts{1.2});
  }
  return m;
}

struct Row {
  sim::SimResult electrical;  // NP-NB semantics on the electrical model
  sim::SimResult optical_static;
  sim::SimResult optical_pb;
};

sim::SimOptions base(traffic::PatternKind pattern) {
  sim::SimOptions o;  // R(1,8,8)
  o.pattern = pattern;
  o.load_fraction = 0.5;
  o.warmup_cycles = 10000;
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  return o;
}

Row run_pattern(traffic::PatternKind pattern) {
  const std::string name = "electrical/" + std::string(traffic::pattern_name(pattern));
  Row row;
  // Electrical: fixed 6.4 Gb/s per board-to-board link, no reconfig.
  auto oe = base(pattern);
  oe.reconfig.mode = reconfig::NetworkMode::np_nb();
  oe.power_model = electrical_model();
  row.electrical = bench::run(name + "/electrical", oe);

  auto os = base(pattern);
  os.reconfig.mode = reconfig::NetworkMode::np_nb();
  row.optical_static = bench::run(name + "/NP-NB", os);

  auto op = base(pattern);
  op.reconfig.mode = reconfig::NetworkMode::p_b();
  row.optical_pb = bench::run(name + "/P-B", op);
  return row;
}

void print_comparison(const std::map<std::string, Row>& results) {
  std::cout << "\n== Baseline: electrical links (6.4 Gb/s, 128 mW) vs E-RAPID @ 0.5 N_c ==\n";
  util::TablePrinter t({"pattern", "elec thru", "elec mW", "optical NP-NB thru",
                        "NP-NB mW", "optical P-B thru", "P-B mW"});
  for (const auto& [name, r] : results) {
    t.row_values(name, util::TablePrinter::fixed(r.electrical.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.electrical.power_avg_mw, 0),
                 util::TablePrinter::fixed(r.optical_static.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.optical_static.power_avg_mw, 0),
                 util::TablePrinter::fixed(r.optical_pb.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.optical_pb.power_avg_mw, 0));
  }
  t.print(std::cout);
  std::cout << "(electrical link power is a stated 20 mW/Gb/s assumption; see file header)\n";
}

}  // namespace

int main() {
  std::map<std::string, Row> results;
  for (auto pattern : {traffic::PatternKind::Uniform, traffic::PatternKind::Complement}) {
    results[std::string(traffic::pattern_name(pattern))] = run_pattern(pattern);
  }
  print_comparison(results);
  return 0;
}
