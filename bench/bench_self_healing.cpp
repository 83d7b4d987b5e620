// Self-healing sweep: throughput retention and recovery latency as a
// function of transient-fault repair time (MTTR) × offered load.
//
// bench_fault_resilience kills lanes permanently; this bench measures the
// flip side introduced with the transient fault plane — a lane fails, is
// repaired after `mttr` cycles, and DBR re-admits it at the next bandwidth
// window while a concurrent bit-error window exercises the CRC/ARQ path.
// For each (mttr, load) point we report throughput retention vs the
// fault-free run, the full recovery arc (downtime + re-admission wait),
// and the ARQ overhead absorbed along the way.
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

// Repair delays in cycles; 0 means fault-free baseline.
const std::vector<Cycle>& mttrs() {
  static const std::vector<Cycle> m = {0, 2000, 6000, 12000};
  return m;
}

sim::SimOptions base_options(double load) {
  sim::SimOptions o;  // R(1,8,8) defaults
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = load;
  o.warmup_cycles = 10000;
  o.measure_cycles = 15000;
  o.drain_limit = 60000;
  o.seed = 1;
  return o;
}

/// One transient storm: a lane failure that repairs after `mttr` cycles
/// plus a moderate bit-error window on a second lane so the ARQ path is
/// always exercised alongside the re-admission arc.
fault::FaultPlan storm(Cycle mttr, const sim::SimOptions& o) {
  const Cycle fail_at = o.warmup_cycles + 1000;
  std::string spec = "lane_fail@" + std::to_string(fail_at) + ":d1:w1:r" +
                     std::to_string(fail_at + mttr) + " bit_error@" +
                     std::to_string(fail_at + 500) + ":d2:w2:p0.0003:6000";
  return fault::FaultPlan::parse_events(spec);
}

using Results = std::map<std::pair<Cycle, double>, sim::SimResult>;

void print_summary(const Results& results) {
  std::cout << "\n== Self-healing (uniform, P-B): throughput retention vs MTTR ==\n";
  util::TablePrinter t({"load(xN_c)", "fault-free", "mttr=2k", "mttr=6k",
                        "mttr=12k", "retention@12k"});
  for (double load : loads()) {
    std::vector<std::string> row = {util::TablePrinter::fixed(load, 1)};
    const double base_thru = results.at({0, load}).accepted_fraction;
    double worst = 0.0;
    for (Cycle m : mttrs()) {
      const double thru = results.at({m, load}).accepted_fraction;
      row.push_back(util::TablePrinter::fixed(thru, 3));
      worst = thru;
    }
    row.push_back(base_thru > 0 ? util::TablePrinter::fixed(worst / base_thru, 3) : "-");
    t.row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\n== Recovery arc (cycles) and ARQ overhead ==\n";
  util::TablePrinter r({"load(xN_c)", "mttr", "downtime", "readmit wait",
                        "crc drops", "arq retx", "dead letters"});
  for (double load : loads()) {
    for (Cycle m : mttrs()) {
      if (m == 0) continue;
      const auto& fr = results.at({m, load}).fault;
      r.row_values(util::TablePrinter::fixed(load, 1), m, fr.worst_downtime,
                   fr.worst_readmission_wait, fr.crc_dropped, fr.arq_retransmits,
                   fr.arq_dead_letters);
    }
  }
  r.print(std::cout);
}

}  // namespace

int main() {
  Results results;
  for (Cycle m : mttrs()) {
    for (double load : loads()) {
      sim::SimOptions o = base_options(load);
      if (m > 0) o.fault = storm(m, o);
      const std::string name = "self_healing/mttr=" + std::to_string(m) +
                               "/load=" + util::TablePrinter::fixed(load, 1);
      results[{m, load}] = bench::run(name, o).result;
    }
  }
  print_summary(results);
  return 0;
}
