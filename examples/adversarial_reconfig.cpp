// Adversarial-traffic reconfiguration demo (the paper's headline scenario,
// §4.2): complement traffic concentrates every node of board s onto board
// B-1-s, saturating the single static wavelength at a fraction of N_c.
// Watch the Lock-Step protocol harvest idle wavelengths and hand them to
// the congested flows, then compare the four modes.
//
//   ./adversarial_reconfig [--load 0.6] [--seed 1]
#include <iostream>

#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  sim::SimOptions opts;
  opts.pattern = traffic::PatternKind::Complement;
  opts.load_fraction = cli.get_double("load", 0.6);
  opts.seed = cli.get_uint<std::uint64_t>("seed", 1);

  // --- Step 1: run P-B alone and show how lane ownership evolved. ---
  {
    sim::SimOptions o = opts;
    o.reconfig.mode = reconfig::NetworkMode::p_b();
    sim::Simulation s(o);
    const auto r = s.run();

    std::cout << "P-B run on complement traffic at " << opts.load_fraction
              << " x N_c:\n";
    std::cout << "  lane grants:   " << r.control.lane_grants << "\n";
    std::cout << "  lane releases: " << r.control.lane_releases << "\n";
    std::cout << "  DVS changes:   " << r.control.level_changes << "\n\n";

    // Final lane allocation per (source board -> complement partner).
    auto& net = s.network();
    const std::uint32_t B = net.config().num_boards_total();
    util::TablePrinter lanes({"flow", "static lanes", "lanes now"});
    for (std::uint32_t b = 0; b < B; ++b) {
      const BoardId src{b};
      const BoardId dst{B - 1 - b};
      lanes.row_values("board " + std::to_string(b) + " -> " + std::to_string(B - 1 - b),
                       1u, net.lane_map().lane_count(src, dst));
    }
    lanes.print(std::cout);
    std::cout << "\n";
  }

  // --- Step 2: the four-mode comparison the paper's Figure 5 makes. ---
  const auto cmp = sim::compare_modes(opts);
  util::TablePrinter table({"mode", "accepted (xN_c)", "avg latency", "power (mW)"});
  auto add = [&](const sim::SimResult& r, const char* name) {
    table.row_values(name, util::TablePrinter::fixed(r.accepted_fraction, 3),
                     util::TablePrinter::fixed(r.latency_avg, 1),
                     util::TablePrinter::fixed(r.power_avg_mw, 1));
  };
  add(cmp.np_nb, "NP-NB");
  add(cmp.p_nb, "P-NB");
  add(cmp.np_b, "NP-B");
  add(cmp.p_b, "P-B");
  table.print(std::cout);

  const double gain = cmp.p_b.accepted_fraction /
                      (cmp.np_nb.accepted_fraction > 0 ? cmp.np_nb.accepted_fraction : 1.0);
  std::cout << "\nP-B throughput gain over static NP-NB: " << gain << "x\n";
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
