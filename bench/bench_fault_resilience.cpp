// Fault-resilience sweep: accepted throughput and recovery latency as a
// function of injected lane-failure count × offered load.
//
// The paper never kills hardware; this bench quantifies the flip side of
// its §3.2 claim — the same DBR machinery that multiplies bandwidth under
// adversarial traffic also re-homes flows around dead lanes. For each
// (failures, load) point we run P-B uniform traffic, fail lanes spread
// across destination boards early in the measurement interval, and report
// throughput retention vs the fault-free run plus the worst observed
// time-to-reroute (cycles from lane death to the replacement grant).
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace erapid;

const std::vector<double>& loads() {
  static const std::vector<double> l = {0.3, 0.5, 0.7};
  return l;
}

const std::vector<std::uint32_t>& failure_counts() {
  static const std::vector<std::uint32_t> f = {0, 1, 2, 4};
  return f;
}

sim::SimOptions base_options(double load) {
  sim::SimOptions o;  // R(1,8,8) defaults
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = load;
  o.warmup_cycles = 10000;
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  o.seed = 1;
  return o;
}

/// Fails `count` lanes on distinct destination boards shortly after the
/// measurement interval opens (one per 500 cycles, statically-lit
/// wavelengths only so each failure actually takes a flow down).
fault::FaultPlan storm(std::uint32_t count, const sim::SimOptions& o) {
  fault::FaultPlan plan;
  const std::uint32_t B = o.system.num_boards_total();
  const std::uint32_t W = o.system.num_wavelengths();
  for (std::uint32_t i = 0; i < count; ++i) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::LaneFail;
    e.at = o.warmup_cycles + 1000 + 500 * i;
    e.dest = BoardId{(i + 1) % B};
    e.wavelength = WavelengthId{1 + (i % (W - 1))};
    plan.events.push_back(e);
  }
  return plan;
}

using Results = std::map<std::pair<std::uint32_t, double>, sim::SimResult>;

void print_summary(const Results& results) {
  std::cout << "\n== Fault resilience (uniform, P-B): throughput retention ==\n";
  util::TablePrinter t({"load(xN_c)", "0 fails", "1 fail", "2 fails", "4 fails",
                        "retention@4"});
  for (double load : loads()) {
    std::vector<std::string> row = {util::TablePrinter::fixed(load, 1)};
    const double base_thru = results.at({0, load}).accepted_fraction;
    double worst = 0.0;
    for (std::uint32_t f : failure_counts()) {
      const double thru = results.at({f, load}).accepted_fraction;
      row.push_back(util::TablePrinter::fixed(thru, 3));
      worst = thru;
    }
    row.push_back(base_thru > 0 ? util::TablePrinter::fixed(worst / base_thru, 3) : "-");
    t.row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\n== Recovery latency (cycles to replacement grant) ==\n";
  util::TablePrinter r({"load(xN_c)", "fails", "rehomed pkts", "reroutes done",
                        "worst t-t-r", "degraded windows"});
  for (double load : loads()) {
    for (std::uint32_t f : failure_counts()) {
      if (f == 0) continue;
      const auto& fr = results.at({f, load}).fault;
      r.row_values(util::TablePrinter::fixed(load, 1), f, fr.packets_rehomed,
                   fr.reroutes_completed, fr.worst_time_to_reroute, fr.degraded_windows);
    }
  }
  r.print(std::cout);
}

}  // namespace

int main() {
  Results results;
  for (std::uint32_t f : failure_counts()) {
    for (double load : loads()) {
      sim::SimOptions o = base_options(load);
      o.fault = storm(f, o);
      const std::string name = "fault_resilience/fails=" + std::to_string(f) +
                               "/load=" + util::TablePrinter::fixed(load, 1);
      results[{f, load}] = bench::run(name, o).result;
    }
  }
  print_summary(results);
  return 0;
}
