// Reproduces the abstract's headline claim: "our proposed LS
// reconfiguration technique combines DPM with DBR techniques, achieving a
// reduction in power consumption of 25% - 50% while degrading the
// throughput by less than 5%" — P-B compared against the non-power-aware
// reference with the same bandwidth policy, across all four evaluated
// traffic patterns at a moderate 0.5 x N_c load.
#include <iostream>
#include <map>
#include <string>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

struct ClaimPoint {
  sim::SimResult np_b;  // non-power-aware reference (bandwidth-reconfigured)
  sim::SimResult p_b;
};

sim::SimOptions base_opts(traffic::PatternKind pattern) {
  sim::SimOptions o;  // R(1,8,8)
  o.pattern = pattern;
  o.load_fraction = 0.5;
  o.warmup_cycles = 10000;
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  return o;
}

void print_claim(const std::map<std::string, ClaimPoint>& results) {
  std::cout << "\n== Headline claim (abstract): P-B vs NP-B at 0.5 x N_c ==\n";
  util::TablePrinter t({"pattern", "NP-B thru", "P-B thru", "thru delta", "NP-B mW",
                        "P-B mW", "power saved"});
  for (const auto& [name, pt] : results) {
    const double dthru =
        100.0 * (pt.p_b.accepted_fraction / pt.np_b.accepted_fraction - 1.0);
    const double saved = 100.0 * (1.0 - pt.p_b.power_avg_mw / pt.np_b.power_avg_mw);
    t.row_values(name, util::TablePrinter::fixed(pt.np_b.accepted_fraction, 3),
                 util::TablePrinter::fixed(pt.p_b.accepted_fraction, 3),
                 util::TablePrinter::fixed(dthru, 1) + "%",
                 util::TablePrinter::fixed(pt.np_b.power_avg_mw, 0),
                 util::TablePrinter::fixed(pt.p_b.power_avg_mw, 0),
                 util::TablePrinter::fixed(saved, 1) + "%");
  }
  t.print(std::cout);
  std::cout << "(paper claims 25%-50% power saved at <5% throughput loss)\n";
}

}  // namespace

int main() {
  std::map<std::string, ClaimPoint> results;
  for (auto pattern :
       {traffic::PatternKind::Uniform, traffic::PatternKind::Complement,
        traffic::PatternKind::Butterfly, traffic::PatternKind::PerfectShuffle}) {
    const std::string name(traffic::pattern_name(pattern));
    auto o = base_opts(pattern);
    ClaimPoint& pt = results[name];
    o.reconfig.mode = reconfig::NetworkMode::np_b();
    pt.np_b = bench::run("headline/" + name + "/NP-B", o).result;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    pt.p_b = bench::run("headline/" + name + "/P-B", o).result;
  }
  print_claim(results);
  return 0;
}
