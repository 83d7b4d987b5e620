// Ablation: system size. The paper shows only the 64-node R(1,8,8) "due
// to space constraints"; this bench sweeps R(1,B,D) to check that the
// qualitative story (DBR gain on complement, P-B power savings on uniform)
// holds as the system scales.
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

struct ScalePoint {
  double complement_gain;   // NP-B / NP-NB accepted throughput
  double uniform_power_saved;  // 1 - P-B/NP-NB power on uniform
  double uniform_thru_keep;    // P-B / NP-NB throughput on uniform
};

sim::SimOptions opts(std::uint32_t boards, std::uint32_t nodes) {
  sim::SimOptions o;
  o.system.boards = boards;
  o.system.nodes_per_board = nodes;
  o.load_fraction = 0.5;
  o.warmup_cycles = 8000;
  o.measure_cycles = 12000;
  o.drain_limit = 40000;
  return o;
}

ScalePoint run_scale(const std::string& name, std::uint32_t boards, std::uint32_t nodes) {
  ScalePoint pt{};
  // Complement: static vs bandwidth-reconfigured.
  auto oc = opts(boards, nodes);
  oc.pattern = traffic::PatternKind::Complement;
  oc.reconfig.mode = reconfig::NetworkMode::np_nb();
  const auto c_base = bench::run(name + "/complement/NP-NB", oc).result;
  oc.reconfig.mode = reconfig::NetworkMode::np_b();
  const auto c_reconf = bench::run(name + "/complement/NP-B", oc).result;
  pt.complement_gain =
      c_base.accepted_fraction > 0 ? c_reconf.accepted_fraction / c_base.accepted_fraction
                                   : 0.0;

  // Uniform: static vs P-B.
  auto ou = opts(boards, nodes);
  ou.reconfig.mode = reconfig::NetworkMode::np_nb();
  const auto u_base = bench::run(name + "/uniform/NP-NB", ou).result;
  ou.reconfig.mode = reconfig::NetworkMode::p_b();
  const auto u_pb = bench::run(name + "/uniform/P-B", ou).result;
  pt.uniform_power_saved = 1.0 - u_pb.power_avg_mw / u_base.power_avg_mw;
  pt.uniform_thru_keep = u_pb.accepted_fraction / u_base.accepted_fraction;
  return pt;
}

void print_scale(const std::map<std::string, ScalePoint>& results) {
  std::cout << "\n== Ablation: system size R(1,B,D) @ 0.5 N_c ==\n";
  util::TablePrinter t({"system", "complement NP-B gain", "uniform P-B power saved",
                        "uniform P-B thru kept"});
  for (const auto& [name, pt] : results) {
    t.row_values(name, util::TablePrinter::fixed(pt.complement_gain, 2) + "x",
                 util::TablePrinter::fixed(100 * pt.uniform_power_saved, 1) + "%",
                 util::TablePrinter::fixed(100 * pt.uniform_thru_keep, 1) + "%");
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {4, 4}, {4, 8}, {8, 4}, {8, 8}, {16, 4}};
  std::map<std::string, ScalePoint> results;
  for (auto [b, d] : sizes) {
    const std::string name = "R(1," + std::to_string(b) + "," + std::to_string(d) +
                             ")=" + std::to_string(b * d);
    results[name] = run_scale("scale/B=" + std::to_string(b) + "/D=" + std::to_string(d), b, d);
  }
  print_scale(results);
  return 0;
}
