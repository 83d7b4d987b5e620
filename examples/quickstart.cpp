// Quickstart: simulate a 64-node E-RAPID system (R(1,8,8), the paper's
// evaluation configuration) under uniform traffic at half capacity in the
// paper's four network modes, and print throughput / latency / power.
//
//   ./quickstart [--load 0.5] [--pattern uniform] [--nodes-per-board 8]
//                [--boards 8] [--seed 1] [--config exp.ini]
//                [--json results.json] [--save-config exp.ini]
//
// With --config, the INI file provides the baseline (see
// sim/options_io.hpp for the schema) and command-line flags override it.
#include <iostream>

#include "sim/options_io.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  sim::SimOptions opts;
  if (const auto cfg = cli.get("config")) opts = sim::load_options(*cfg);
  opts.system.boards = cli.get_uint("boards", opts.system.boards);
  opts.system.nodes_per_board = cli.get_uint("nodes-per-board", opts.system.nodes_per_board);
  opts.load_fraction = cli.get_double("load", opts.load_fraction);
  opts.seed = cli.get_uint("seed", opts.seed);

  const auto pattern =
      traffic::parse_pattern(cli.get_or("pattern", std::string(traffic::pattern_name(opts.pattern))));
  if (!pattern) {
    std::cerr << "unknown pattern: " << cli.get_or("pattern", "") << "\n";
    return 1;
  }
  opts.pattern = *pattern;

  if (const auto save = cli.get("save-config")) {
    sim::save_options(*save, opts);
    std::cout << "wrote effective config to " << *save << "\n";
  }

  std::cout << "E-RAPID " << opts.system.describe() << ", pattern "
            << traffic::pattern_name(opts.pattern) << ", offered load "
            << opts.load_fraction << " x N_c\n\n";

  const auto cmp = sim::compare_modes(opts);

  util::TablePrinter table({"mode", "accepted (xN_c)", "avg latency (cyc)",
                            "p99 latency", "power (mW)", "drained"});
  auto add = [&](const sim::SimResult& r, const char* name) {
    table.row_values(name, util::TablePrinter::fixed(r.accepted_fraction, 3),
                     util::TablePrinter::fixed(r.latency_avg, 1),
                     util::TablePrinter::fixed(r.latency_p99, 1),
                     util::TablePrinter::fixed(r.power_avg_mw, 1),
                     r.drained ? "yes" : "no");
  };
  add(cmp.np_nb, "NP-NB");
  add(cmp.p_nb, "P-NB");
  add(cmp.np_b, "NP-B");
  add(cmp.p_b, "P-B");
  table.print(std::cout);

  std::cout << "\nN_c (uniform capacity) = " << cmp.np_nb.capacity_pkt_node_cycle
            << " packets/node/cycle\n";

  if (const auto json = cli.get("json")) {
    sim::write_results_json(*json, {{"NP-NB", cmp.np_nb},
                                    {"P-NB", cmp.p_nb},
                                    {"NP-B", cmp.np_b},
                                    {"P-B", cmp.p_b}});
    std::cout << "wrote JSON results to " << *json << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
