// Fault-injection demo: kill lanes, brown out a laser and drop Lock-Step
// control packets mid-run, then watch the reconfiguration plane absorb it.
//
// The permanent storm (relative to the warmup end W):
//   W+1000   lane (d1, w1) dies           — its flow is re-homed by DBR
//   W+2000   lane (d2, w2) dies
//   W+3000   laser on (d3, w3) degrades to P_low for 6000 cycles
//   W+4000   board 1 loses 2 consecutive ring circulations (retries)
//   W+5000   board 2 loses more than ctrl_retry_limit (sits a window out)
//
// With --transient the storm self-heals instead: the lane failure repairs
// (and the lane is re-admitted by DBR), a bit-error window corrupts
// packets that the CRC/ARQ path retransmits, and an RC crashes and later
// rejoins the ring (watchdog token regeneration in between).
//
//   ./fault_storm [--load 0.5] [--seed 1] [--drop-prob 0.0] [--transient]
//                 [--trace storm.trace.json]
#include <iostream>
#include <sstream>
#include <string>

#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace erapid;

  const auto cli = util::Cli::parse(argc, argv);
  sim::SimOptions opts;
  opts.pattern = traffic::PatternKind::Uniform;
  opts.reconfig.mode = reconfig::NetworkMode::p_b();
  opts.load_fraction = cli.get_double("load", 0.5);
  opts.seed = cli.get_uint<std::uint64_t>("seed", 1);

  const bool transient = cli.has("transient");
  if (const auto trace = cli.get("trace")) {
    opts.obs.enabled = true;
    opts.obs.trace_path = *trace;
    opts.obs.trace_events = true;
  }

  const Cycle w = opts.warmup_cycles;
  std::ostringstream plan;
  if (transient) {
    plan << "lane_fail@" << (w + 1000) << ":d1:w1:r" << (w + 5000) << " "
         << "bit_error@" << (w + 1500) << ":d2:w2:p0.0005:6000 "
         << "rc_crash@" << (w + 2000) << ":b2:r" << (w + 6000) << " "
         << "ctrl_drop@" << (w + 4000) << ":ring:b1:n2";
  } else {
    plan << "lane_fail@" << (w + 1000) << ":d1:w1 "
         << "lane_fail@" << (w + 2000) << ":d2:w2 "
         << "laser_degrade@" << (w + 3000) << ":d3:w3:low:6000 "
         << "ctrl_drop@" << (w + 4000) << ":ring:b1:n2 "
         << "ctrl_drop@" << (w + 5000) << ":ring:b2:n"
         << (opts.reconfig.ctrl_retry_limit + 1);
  }

  // --- fault-free baseline, then the same run under the storm ---
  sim::SimResult clean;
  {
    sim::Simulation s(opts);
    clean = s.run();
  }
  sim::SimOptions faulty = opts;
  faulty.fault = fault::FaultPlan::parse_events(plan.str());
  faulty.fault.ctrl_drop_prob = cli.get_double("drop-prob", 0.0);
  sim::Simulation s(faulty);
  const auto r = s.run();

  std::cout << "Fault storm on uniform P-B at " << opts.load_fraction << " x N_c\n"
            << "plan: " << faulty.fault.format_events() << "\n\n";

  util::TablePrinter cmp({"metric", "fault-free", "under storm"});
  cmp.row_values("accepted (xN_c)", util::TablePrinter::fixed(clean.accepted_fraction, 3),
                 util::TablePrinter::fixed(r.accepted_fraction, 3));
  cmp.row_values("avg latency (cycles)", util::TablePrinter::fixed(clean.latency_avg, 1),
                 util::TablePrinter::fixed(r.latency_avg, 1));
  cmp.row_values("power (mW)", util::TablePrinter::fixed(clean.power_avg_mw, 1),
                 util::TablePrinter::fixed(r.power_avg_mw, 1));
  cmp.row_values("lane grants", clean.control.lane_grants, r.control.lane_grants);
  cmp.print(std::cout);

  std::cout << "\nRecovery:\n";
  util::TablePrinter rec({"stat", "value"});
  rec.row_values("lanes failed", r.fault.lanes_failed);
  rec.row_values("lanes degraded", r.fault.lanes_degraded);
  rec.row_values("in-flight packets re-homed", r.fault.packets_rehomed);
  rec.row_values("reroutes completed", r.fault.reroutes_completed);
  rec.row_values("reroutes still pending", r.fault.reroutes_pending);
  rec.row_values("degraded windows", r.fault.degraded_windows);
  rec.row_values("worst time-to-reroute (cycles)", r.fault.worst_time_to_reroute);
  rec.row_values("ctrl packets dropped", r.fault.ctrl_drops);
  rec.row_values("ctrl retransmissions", r.fault.ctrl_retries);
  rec.row_values("ctrl timeouts (window sat out)", r.fault.ctrl_timeouts);
  rec.row_values("ctrl retry budgets exhausted", r.fault.ctrl_exhausted);
  rec.row_values("stale directives discarded", r.fault.stale_directives);
  rec.print(std::cout);

  if (transient) {
    std::cout << "\nSelf-healing:\n";
    util::TablePrinter heal({"stat", "value"});
    heal.row_values("lanes repaired", r.fault.lanes_repaired);
    heal.row_values("re-admissions completed", r.fault.readmissions_completed);
    heal.row_values("re-admissions still pending", r.fault.readmissions_pending);
    heal.row_values("worst downtime (cycles)", r.fault.worst_downtime);
    heal.row_values("worst re-admission wait (cycles)", r.fault.worst_readmission_wait);
    heal.row_values("CRC drops", r.fault.crc_dropped);
    heal.row_values("ARQ retransmissions", r.fault.arq_retransmits);
    heal.row_values("ARQ dead letters", r.fault.arq_dead_letters);
    heal.row_values("RC crashes / repairs",
                    std::to_string(r.fault.rc_crashes) + " / " +
                        std::to_string(r.fault.rc_repairs));
    heal.row_values("watchdog fires", r.fault.watchdog_fires);
    heal.row_values("ring tokens regenerated", r.fault.tokens_regenerated);
    heal.row_values("frozen LS windows", r.fault.frozen_windows);
    heal.print(std::cout);
  }

  const double retention =
      clean.accepted_fraction > 0 ? r.accepted_fraction / clean.accepted_fraction : 1.0;
  std::cout << "\nThroughput retention under storm: "
            << util::TablePrinter::fixed(retention, 3) << "x\n";
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
