// erapid_campaign — one-point worker for the parallel campaign runner.
//
// The Python driver (tools/campaign/campaign.py) expands a sweep spec into
// independent (pattern, mode, load, seed, overrides) points and runs one
// worker process per point; this binary executes exactly one point and
// prints its result as a single JSON object on stdout: one erapid-bench-1
// point (sim/report), keyed (pattern, mode, load, seed). Keeping the worker
// single-point makes sharding trivial and crash containment exact: a dying
// point takes down one process, and the driver records the failure without
// disturbing any other point.
//
// Flags:
//   --pattern=NAME --mode=NAME --load=F --seed=N   the point coordinates
//   --config=FILE       optional base INI applied before the coordinates
//   --no-wall=1         report wall_ms as 0 (byte-identity/golden runs)
//   key=value ...       positional INI overrides applied last
//
// Always use the --key=value spelling: the Cli's bare `--flag value` form
// would swallow a following positional override as the flag's value.
//
// Wall time is measured here in the harness around the whole run — model
// code never reads a wall clock (that is the determinism contract; the
// lint suppressions below mark the one sanctioned harness-side use).

#include <chrono>  // erapid-analyze: allow-file(nondet-source)
#include <iostream>
#include <string>

#include "obs/trace.hpp"
#include "sim/options_io.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/ini.hpp"

namespace {

using erapid::sim::SimOptions;
using erapid::sim::SimResult;

}  // namespace

int main(int argc, char** argv) {
  const auto cli = erapid::util::Cli::parse(argc, argv);
  try {
    erapid::util::Ini ini;
    if (const auto config = cli.get("config")) ini = erapid::util::Ini::load_file(*config);

    // Point coordinates land in the INI first, so positional overrides can
    // still retune anything (including the coordinates themselves).
    if (const auto pattern = cli.get("pattern")) ini.set("workload.pattern", *pattern);
    if (const auto mode = cli.get("mode")) ini.set("reconfig.mode", *mode);
    if (const auto load = cli.get("load")) ini.set("workload.load", *load);
    if (const auto seed = cli.get("seed")) ini.set("workload.seed", *seed);

    for (const auto& arg : cli.positional()) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "erapid_campaign: override must be key=value, got '" << arg << "'\n";
        return 2;
      }
      ini.set(arg.substr(0, eq), arg.substr(eq + 1));
    }

    const SimOptions opts = erapid::sim::options_from_ini(ini);
    const bool no_wall = cli.get_bool("no-wall", false);

    const auto wall_start = std::chrono::steady_clock::now();
    erapid::sim::Simulation sim(opts);
    const SimResult result = sim.run();
    const double wall_ms =
        no_wall ? 0.0
                : std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                            wall_start)
                      .count();

    std::cout << erapid::sim::bench_point_json(
                     {{{"pattern", std::string(erapid::traffic::pattern_name(opts.pattern))},
                       {"mode", std::string(opts.reconfig.mode.name)},
                       {"load", opts.load_fraction},
                       {"seed", opts.seed}},
                      &result,
                      wall_ms})
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    // One line of structured stderr: the driver embeds it in the failed
    // point's record.
    std::cerr << "{\"error\": \"" << erapid::obs::json_escape(e.what()) << "\"}\n";
    return 1;
  }
}
