// Reproduces Figure 3: the power/utilization design space. The paper's
// figure is conceptual — power and link utilization timelines under the
// four configurations as traffic fluctuates. We regenerate it empirically:
// a three-phase load profile (low → high burst → low) on shuffle traffic,
// sampling instantaneous network power per phase for each mode.
//
// Shape to check: NP-NB flat at max power; P-NB tracks load at reduced
// power but cannot add bandwidth; NP-B adds bandwidth at high load and
// burns more power; P-B adds bandwidth *and* tracks load in power.
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "sim/network.hpp"
#include "sweep.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

struct PhaseSample {
  double avg_power_mw;
  std::uint64_t delivered;
};

struct TimelineResult {
  std::vector<PhaseSample> phases;  // low, burst, low
};

constexpr Cycle kPhase = 30000;

TimelineResult run_timeline(const reconfig::NetworkMode& mode) {
  topology::SystemConfig cfg;  // R(1,8,8)
  reconfig::ReconfigConfig rc;
  rc.mode = mode;

  des::Engine engine;
  sim::Network net(engine, cfg, rc);
  std::uint64_t delivered = 0;
  net.set_delivery_callback([&](const router::Packet&, Cycle) { ++delivered; });
  net.start();

  traffic::TrafficPattern pattern(traffic::PatternKind::PerfectShuffle, cfg.num_nodes());
  const double nc = topology::CapacityModel(cfg).uniform_capacity();
  util::Rng master(42);
  std::vector<std::unique_ptr<traffic::NodeSource>> sources;
  for (std::uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    sources.push_back(std::make_unique<traffic::NodeSource>(
        engine, pattern, NodeId{n}, cfg.packet_flits, master.fork(),
        [&net](const router::Packet& p, Cycle now) { net.inject(p, now); }));
  }

  TimelineResult out;
  const double rates[3] = {0.15 * nc, 0.85 * nc, 0.15 * nc};
  for (int phase = 0; phase < 3; ++phase) {
    for (auto& s : sources) s->set_rate(rates[phase]);
    net.meter().checkpoint(engine.now());
    const std::uint64_t before = delivered;
    engine.run_until(engine.now() + kPhase);
    out.phases.push_back({net.meter().average_mw(engine.now()).value(), delivered - before});
  }
  return out;
}

void print_figure3(const std::map<std::string, TimelineResult>& results) {
  std::cout << "\n== Figure 3: power tracking across a low/burst/low load profile "
               "(shuffle) ==\n";
  util::TablePrinter t({"mode", "P(low) mW", "P(burst) mW", "P(low again) mW",
                        "delivered@burst"});
  for (const auto& name : {"NP-NB", "P-NB", "NP-B", "P-B"}) {
    const auto& r = results.at(name);
    t.row_values(name, util::TablePrinter::fixed(r.phases[0].avg_power_mw, 1),
                 util::TablePrinter::fixed(r.phases[1].avg_power_mw, 1),
                 util::TablePrinter::fixed(r.phases[2].avg_power_mw, 1),
                 r.phases[1].delivered);
  }
  t.print(std::cout);
  std::cout << "(NP-NB: flat; P-NB: power follows load; NP-B: flat & high;\n"
               " P-B: follows load while matching NP-B's burst throughput)\n";
}

}  // namespace

int main() {
  std::map<std::string, TimelineResult> results;
  for (const auto& mode :
       {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::p_nb(),
        reconfig::NetworkMode::np_b(), reconfig::NetworkMode::p_b()}) {
    const std::string name(mode.name);
    bench::timed("fig3/" + name, [&] { results[name] = run_timeline(mode); });
  }
  print_figure3(results);
  return 0;
}
