// Using the library below the Simulation driver: build a Network directly,
// drive it with a hand-rolled traffic process (a bursty on/off source
// aimed at one board — not expressible as a TrafficPattern), and observe
// the Lock-Step protocol chase the bursts with grants and DVS changes.
//
// This is the intended extension point for users who want trace-driven or
// application-generated traffic.
//
//   ./custom_pattern [--bursts 12] [--burst-len 4000] [--gap 6000]
#include <iostream>

#include "des/engine.hpp"
#include "sim/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  const auto bursts = cli.get_uint<std::uint32_t>("bursts", 12);
  const auto burst_len = cli.get_uint<Cycle>("burst-len", 4000);
  const auto gap = cli.get_uint<Cycle>("gap", 6000);

  topology::SystemConfig cfg;  // R(1,8,8) default
  reconfig::ReconfigConfig rc;
  rc.mode = reconfig::NetworkMode::p_b();

  des::Engine engine;
  sim::Network net(engine, cfg, rc);

  std::uint64_t delivered = 0;
  double latency_sum = 0;
  net.set_delivery_callback([&](const router::Packet& p, Cycle now) {
    ++delivered;
    latency_sum += static_cast<double>(now - p.created);
  });
  net.start();

  // Bursty process: during a burst, every node of board 0 fires a packet
  // at node (63 - local) of board 7 every 40 cycles; then silence.
  std::uint64_t seq = 1;
  const std::uint32_t D = cfg.nodes_per_board;
  for (std::uint32_t burst = 0; burst < bursts; ++burst) {
    const Cycle start = static_cast<Cycle>(burst) * (burst_len + gap) + 100;
    for (Cycle t = start; t < start + burst_len; t += 40) {
      for (std::uint32_t i = 0; i < D; ++i) {
        engine.schedule_at(t, [&net, &engine, &seq, &cfg, i, D] {
          router::Packet p;
          p.seq = seq++;
          p.src = cfg.node_at(BoardId{0}, i);
          p.dst = cfg.node_at(BoardId{cfg.boards - 1}, D - 1 - i);
          p.flits = cfg.packet_flits;
          p.created = engine.now();
          net.inject(p, engine.now());
        });
      }
    }
  }

  const Cycle horizon = static_cast<Cycle>(bursts) * (burst_len + gap) + 50000;
  engine.run_until(horizon);

  const auto& ctl = net.reconfig_manager().counters();
  util::TablePrinter table({"metric", "value"});
  table.row_values("packets delivered", delivered);
  table.row_values("avg latency (cycles)",
                   util::TablePrinter::fixed(
                       delivered ? static_cast<double>(latency_sum) / static_cast<double>(delivered)
                                 : 0.0,
                       1));
  table.row_values("lane grants", ctl.lane_grants);
  table.row_values("lane releases", ctl.lane_releases);
  table.row_values("DVS level changes", ctl.level_changes);
  table.row_values("lanes board0->board7 now",
                   net.lane_map().lane_count(BoardId{0}, BoardId{cfg.boards - 1}));
  table.row_values("avg optical power (mW)",
                   util::TablePrinter::fixed(net.meter().average_mw(engine.now()).value(), 1));
  table.print(std::cout);
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
