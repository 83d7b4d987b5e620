// Trace demo: run one small P-B simulation with the observability
// subsystem on and write a Chrome/Perfetto trace plus the metrics
// snapshot. Load the trace in ui.perfetto.dev (or chrome://tracing), or
// post-process it with tools/trace/summarize_trace.py.
//
//   ./trace_demo [--trace out.trace.json]
//                [--boards 4] [--nodes-per-board 4] [--load 0.5] [--seed 1]
//                [--interval 500] [--events] [--workload allreduce]
//                [--telemetry out.jsonl] [--telemetry-window 2000]
//                [--flight-recorder dump.json] [--flight-depth 256]
//                [--power-cap 0] [--fail-fast] [--degrade record|degrade|shed|abort]
//
// CI runs this binary as the instrumented smoke simulation and validates
// the emitted trace with the summarizer — and, with --telemetry, the
// windowed JSONL stream with tools/obs/telemetry_report.py. --power-cap
// (mW, 0 = off) arms the power envelope monitor; combined with
// --flight-recorder an impossible cap forces a violation and dumps the
// black-box ring, which CI schema-checks. --degrade installs the
// survivability controller's response to cap violations (the brownout
// ladder; DESIGN.md §15) — with --fail-fast a tight cap aborts the run
// unless the policy holds it inside the envelope, which the chaos CI job
// smokes under ASan/UBSan.
#include <iostream>

#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  sim::SimOptions opts;
  opts.system.boards = cli.get_uint<std::uint32_t>("boards", 4);
  opts.system.nodes_per_board = cli.get_uint<std::uint32_t>("nodes-per-board", 4);
  opts.reconfig.mode = reconfig::NetworkMode::p_b();
  opts.load_fraction = cli.get_double("load", 0.5);
  opts.seed = cli.get_uint<std::uint64_t>("seed", 1);
  opts.warmup_cycles = 4000;
  opts.measure_cycles = 8000;
  opts.drain_limit = 60000;

  opts.obs.enabled = true;
  opts.obs.trace_path = cli.get_or("trace", std::string("trace_demo.trace.json"));
  opts.obs.counter_interval = cli.get_uint<CycleDelta>("interval", 500);
  opts.obs.trace_events = cli.has("events");

  // Windowed telemetry plane + flight recorder (both off by default, same
  // as the obs.telemetry / obs.flight_recorder_depth INI keys).
  if (const auto tel = cli.get("telemetry")) {
    opts.obs.telemetry_path = *tel;
    opts.obs.telemetry_window = cli.get_uint<CycleDelta>("telemetry-window", 2000);
  }
  if (const auto fr = cli.get("flight-recorder")) {
    opts.obs.flight_recorder_path = *fr;
    opts.obs.flight_recorder_depth = cli.get_uint<std::size_t>("flight-depth", 256);
  }
  opts.obs.monitors.power_cap_mw = cli.get_double("power-cap", 0.0);
  opts.obs.monitor_fail_fast = cli.has("fail-fast");
  if (const auto policy = cli.get("degrade")) {
    opts.degrade.power_cap = resilience::parse_policy(*policy);
  }

  // Optional structured workload (e.g. --workload allreduce): the demo
  // then traces a completion-bounded collective instead of the fixed
  // warmup/measure window.
  if (const auto wl = cli.get("workload")) {
    const auto kind = workload::parse_kind(*wl);
    if (!kind) {
      std::cerr << "unknown workload kind: " << *wl << "\n";
      return 1;
    }
    opts.workload.kind = *kind;
    opts.workload.episodes = 1;
    opts.workload.volume_packets = 4;
    opts.workload.phase_rate = 0.6;
    opts.workload.horizon_cycles = 200000;
  }

  sim::Simulation simulation(opts);
  const auto result = simulation.run();

  std::cout << "trace written to " << opts.obs.trace_path << "\n";
  if (!opts.obs.telemetry_path.empty()) {
    std::cout << "telemetry written to " << opts.obs.telemetry_path << "\n";
  }
  std::cout << sim::to_json(result) << "\n";
  return 0;
}
