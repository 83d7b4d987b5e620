// Extension bench: multiple power scaling techniques (the paper's
// conclusion: "In the future, we will evaluate multiple power scaling
// techniques ..."). Compares the paper's threshold rule against
// K-window hysteresis and EWMA prediction on a load profile with
// fluctuation (shuffle at mid load), where transition churn matters:
// every DVS transition stalls the lane for 65 cycles.
#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

struct Config {
  reconfig::DpmStrategyKind kind;
  std::uint32_t hysteresis = 2;
  double alpha = 0.5;
  std::string label;
};

void print_ablation(const std::map<std::string, sim::SimResult>& results) {
  std::cout << "\n== Extension: power scaling techniques (P-B, shuffle @ 0.5 N_c) ==\n";
  util::TablePrinter t({"strategy", "thru (xN_c)", "latency (cyc)", "total power (mW)",
                        "active power (mW)", "DVS changes"});
  for (const auto& [label, r] : results) {
    t.row_values(label, util::TablePrinter::fixed(r.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.latency_avg, 1),
                 util::TablePrinter::fixed(r.power_avg_mw, 0),
                 util::TablePrinter::fixed(r.active_power_avg_mw, 0),
                 r.control.level_changes);
  }
  t.print(std::cout);
  std::cout << "(threshold = the paper's rule; hysteresis trades reaction speed for\n"
               " fewer 65-cycle transition stalls; EWMA follows the trend)\n";
}

}  // namespace

int main() {
  const Config configs[] = {
      {reconfig::DpmStrategyKind::Threshold, 0, 0.0, "threshold (paper)"},
      {reconfig::DpmStrategyKind::Hysteresis, 2, 0.0, "hysteresis K=2"},
      {reconfig::DpmStrategyKind::Hysteresis, 4, 0.0, "hysteresis K=4"},
      {reconfig::DpmStrategyKind::Ewma, 0, 0.25, "ewma a=0.25"},
      {reconfig::DpmStrategyKind::Ewma, 0, 0.5, "ewma a=0.5"},
      {reconfig::DpmStrategyKind::Ewma, 0, 0.75, "ewma a=0.75"},
  };
  std::map<std::string, sim::SimResult> results;
  for (const auto& cfg : configs) {
    sim::SimOptions o;  // R(1,8,8)
    o.pattern = traffic::PatternKind::PerfectShuffle;
    o.load_fraction = 0.5;
    o.warmup_cycles = 12000;
    o.measure_cycles = 16000;
    o.drain_limit = 50000;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    o.reconfig.dpm_strategy = cfg.kind;
    o.reconfig.dpm_params.hysteresis_windows = cfg.hysteresis;
    o.reconfig.dpm_params.ewma_alpha = cfg.alpha;
    results[cfg.label] = bench::run("dpm/" + cfg.label, o).result;
  }
  print_ablation(results);
  return 0;
}
