// Power/performance sweep: offered load 0.1..0.9 x N_c under one traffic
// pattern, P-B vs NP-NB — the power-saving story of the paper's abstract
// (25-50% less power for <5% throughput loss on benign traffic).
// Optionally writes the series to CSV for plotting.
//
//   ./power_sweep [--pattern uniform] [--csv out.csv] [--seed 1]
#include <iostream>
#include <memory>

#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  const auto pattern = traffic::parse_pattern(cli.get_or("pattern", "uniform"));
  if (!pattern) {
    std::cerr << "unknown pattern\n";
    return 1;
  }

  std::unique_ptr<util::CsvWriter> csv;
  if (auto path = cli.get("csv")) {
    csv = std::make_unique<util::CsvWriter>(
        *path, std::vector<std::string>{"load", "mode", "accepted", "latency", "power_mw"});
  }

  util::TablePrinter table({"load (xN_c)", "NP-NB thru", "P-B thru", "NP-NB mW",
                            "P-B mW", "power saved"});
  for (int i = 1; i <= 9; ++i) {
    const double load = 0.1 * i;
    sim::SimOptions opts;
    opts.pattern = *pattern;
    opts.load_fraction = load;
    opts.seed = cli.get_uint<std::uint64_t>("seed", 1);

    sim::SimOptions base = opts;
    base.reconfig.mode = reconfig::NetworkMode::np_nb();
    const auto r_base = sim::Simulation(base).run();

    sim::SimOptions pb = opts;
    pb.reconfig.mode = reconfig::NetworkMode::p_b();
    const auto r_pb = sim::Simulation(pb).run();

    const double saved =
        r_base.power_avg_mw > 0 ? 1.0 - r_pb.power_avg_mw / r_base.power_avg_mw : 0.0;
    table.row_values(util::TablePrinter::fixed(load, 1),
                     util::TablePrinter::fixed(r_base.accepted_fraction, 3),
                     util::TablePrinter::fixed(r_pb.accepted_fraction, 3),
                     util::TablePrinter::fixed(r_base.power_avg_mw, 1),
                     util::TablePrinter::fixed(r_pb.power_avg_mw, 1),
                     util::TablePrinter::fixed(100.0 * saved, 1) + "%");
    if (csv) {
      csv->row_values(load, "NP-NB", r_base.accepted_fraction, r_base.latency_avg,
                      r_base.power_avg_mw);
      csv->row_values(load, "P-B", r_pb.accepted_fraction, r_pb.latency_avg,
                      r_pb.power_avg_mw);
    }
  }
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
