// Trace-driven replay through the workload subsystem: replays an
// erapid-trace v1 file to delivered-byte completion (workload.kind=trace)
// under the static NP-NB and the power-bandwidth-reconfigured P-B
// configurations and compares makespan, latency and power.
//
// With no --trace argument it synthesizes the phased application the
// paper's introduction motivates (stencil timesteps with a periodic
// all-to-all transpose), round-trips it through the on-disk format, and
// replays that.
//
//   ./trace_replay [--trace tests/data/tiny_app.trace] [--boards 4]
//                  [--nodes 4] [--steps 40] [--period 800] [--json]
#include <iostream>

#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "traffic/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

sim::SimResult replay(const sim::SimOptions& base, const reconfig::NetworkMode& mode) {
  sim::SimOptions o = base;
  o.reconfig.mode = mode;
  sim::Simulation s(o);
  return s.run();
}

int run(int argc, char** argv) {
  const auto cli = util::Cli::parse(argc, argv);

  sim::SimOptions o;
  o.system.boards = cli.get_uint<std::uint32_t>("boards", 8);
  o.system.nodes_per_board = cli.get_uint<std::uint32_t>("nodes", 8);
  o.workload.kind = workload::WorkloadKind::Trace;
  o.workload.horizon_cycles = 400000;
  const std::uint32_t N = o.system.num_nodes();

  if (const auto trace = cli.get("trace")) {
    o.workload.trace_file = *trace;
  } else {
    // Compose the phased application: stencil every `period`, an
    // all-to-all transpose every 8 timesteps; round-trip it through the
    // on-disk format so the example also exercises save/load.
    const auto steps = cli.get_uint<std::uint32_t>("steps", 40);
    const auto period = cli.get_uint<Cycle>("period", 800);
    const std::string path = cli.get_or("out", "/tmp/erapid_app.trace");
    traffic::Trace app = traffic::make_stencil_trace(N, steps, period);
    traffic::Trace transpose =
        traffic::make_alltoall_trace(N, steps / 8, 8 * period, /*stagger=*/4,
                                     /*start=*/4 * period);
    for (const auto& e : transpose.events()) app.add(e.cycle, e.src, e.dst);
    app.finalize(N);
    app.save_file(path);
    o.workload.trace_file = path;
  }

  const auto loaded = traffic::Trace::load_file(o.workload.trace_file, N);
  std::cout << "trace: " << loaded.size() << " events over " << loaded.duration()
            << " cycles (" << o.workload.trace_file << ")\n\n";

  const auto np_nb = replay(o, reconfig::NetworkMode::np_nb());
  const auto p_b = replay(o, reconfig::NetworkMode::p_b());

  if (cli.get_bool("json", false)) {
    // Machine-readable: the P-B report (what the smoke test parses).
    std::cout << sim::to_json(p_b) << "\n";
  } else {
    util::TablePrinter t({"mode", "completed", "delivered", "avg latency (cyc)",
                          "avg power (mW)", "makespan (cyc)"});
    for (const auto* r : {&np_nb, &p_b}) {
      t.row_values(r == &np_nb ? "NP-NB" : "P-B",
                   r->workload.completed ? "yes" : "NO", r->workload.packets_delivered,
                   util::TablePrinter::fixed(r->latency_avg, 1),
                   util::TablePrinter::fixed(r->power_avg_mw, 1), r->end_cycle);
    }
    t.print(std::cout);

    if (np_nb.power_avg_mw > 0) {
      std::cout << "\nP-B energy saving on this application: "
                << util::TablePrinter::fixed(
                       100.0 * (1.0 - p_b.power_avg_mw / np_nb.power_avg_mw), 1)
                << "%\n";
    }
  }
  const bool ok = np_nb.workload.completed && p_b.workload.completed &&
                  p_b.workload.packets_delivered == np_nb.workload.packets_delivered;
  return ok ? 0 : 2;
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
