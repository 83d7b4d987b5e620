// Monitor subsystem tests (src/obs/monitor.*).
//
// Unit layer: MonitorSet check semantics — ceiling vs floor direction,
// worst-value tracking, first-violation cycle, quiescence bookkeeping,
// name-sorted report rendering, fail-fast through the contract layer.
//
// Integration layer: a simulation run with `monitor.*` checks configured
//   * deterministically reports violations (same seed, byte-identical
//     `obs_monitors` blocks and trace instants on the obs.monitors track),
//   * passes cleanly under generous envelopes,
//   * ends through ModelInvariantError under obs.monitor_fail_fast,
//   * and stays byte-inert when no check is configured (no `obs_monitors`
//     block; the obs-off golden fixture in test_determinism.cpp pins the
//     monitors-off report bytes).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"

namespace {

using namespace erapid;

sim::SimOptions base_options() {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = 0.5;
  o.seed = 1;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.drain_limit = 60000;
  return o;
}

// ---- unit: MonitorSet -------------------------------------------------------

TEST(MonitorSet, CeilingTracksWorstAndFirstViolation) {
  obs::MetricsRegistry reg;
  obs::MonitorConfig cfg;
  cfg.power_cap_mw = 100.0;
  cfg.throughput_floor = 0.4;
  obs::MonitorSet mon(cfg, /*fail_fast=*/false, /*trace=*/nullptr, 0, reg);

  mon.sample_power(10, 50.0);   // within the envelope
  mon.sample_power(20, 150.0);  // first violation
  mon.sample_power(30, 120.0);  // second violation; worst stays 150
  EXPECT_EQ(mon.violations(), 2u);
  EXPECT_FALSE(mon.all_ok());

  obs::FinalSample fin;
  fin.now = 100;
  fin.accepted_fraction = 0.5;  // above the floor
  mon.finalize(fin);
  EXPECT_EQ(mon.violations(), 2u);

  const auto rep = mon.report();
  ASSERT_EQ(rep.size(), 2u);  // name-sorted: power_cap_mw, throughput_floor
  EXPECT_EQ(rep[0].first, "power_cap_mw");
  EXPECT_NE(rep[0].second.find("\"worst\": 150"), std::string::npos) << rep[0].second;
  EXPECT_NE(rep[0].second.find("\"violations\": 2"), std::string::npos);
  EXPECT_NE(rep[0].second.find("\"first_violation\": 20"), std::string::npos);
  EXPECT_NE(rep[0].second.find("\"ok\": false"), std::string::npos);
  EXPECT_EQ(rep[1].first, "throughput_floor");
  EXPECT_NE(rep[1].second.find("\"ok\": true"), std::string::npos);
  // The violation counter metric mirrors the tally.
  EXPECT_EQ(reg.counter_value(reg.counter("monitor.violations")), 2u);
}

TEST(MonitorSet, FloorFiresBelowThresholdOnly) {
  obs::MetricsRegistry reg;
  obs::MonitorConfig cfg;
  cfg.throughput_floor = 0.4;
  obs::MonitorSet mon(cfg, false, nullptr, 0, reg);
  obs::FinalSample fin;
  fin.now = 50;
  fin.accepted_fraction = 0.25;  // below the floor
  mon.finalize(fin);
  EXPECT_EQ(mon.violations(), 1u);
  const auto rep = mon.report();
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_NE(rep[0].second.find("\"worst\": 0.25"), std::string::npos) << rep[0].second;
}

TEST(MonitorSet, QuiescenceDeadlineCoversSettledAndAbandonedResolves) {
  obs::MetricsRegistry reg;
  obs::MonitorConfig cfg;
  cfg.quiescence_deadline = 100;
  obs::MonitorSet mon(cfg, false, nullptr, 0, reg);

  mon.dbr_resolve(1000);
  mon.dbr_quiesced(1000, 1050);  // 50 cycles: within the deadline
  mon.dbr_resolve(2000);
  mon.dbr_quiesced(2000, 2500);  // 500 cycles: violation
  mon.dbr_resolve(3000);         // never settles

  obs::FinalSample fin;
  fin.now = 4000;  // the abandoned re-solve is 1000 cycles overdue
  mon.finalize(fin);
  EXPECT_EQ(mon.violations(), 2u);
  const auto rep = mon.report();
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_NE(rep[0].second.find("\"violations\": 2"), std::string::npos) << rep[0].second;
}

TEST(MonitorSet, FailFastThrowsThroughContractLayer) {
  obs::MetricsRegistry reg;
  obs::MonitorConfig cfg;
  cfg.power_cap_mw = 100.0;
  obs::MonitorSet mon(cfg, /*fail_fast=*/true, nullptr, 0, reg);
  mon.sample_power(10, 50.0);  // fine
  EXPECT_THROW(mon.sample_power(20, 500.0), ModelInvariantError);
}

TEST(MonitorSet, P99CeilingCheckedAtFinalize) {
  obs::MetricsRegistry reg;
  obs::MonitorConfig cfg;
  cfg.p99_latency_ceiling = 200.0;
  obs::MonitorSet mon(cfg, false, nullptr, 0, reg);
  obs::FinalSample fin;
  fin.now = 99;
  fin.latency_p99 = 450.0;
  mon.finalize(fin);
  EXPECT_EQ(mon.violations(), 1u);
  EXPECT_NE(mon.report()[0].second.find("\"first_violation\": 99"), std::string::npos);
}

// ---- integration ------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(MonitorIntegration, PowerCapBelowEnvelopeReportsViolationDeterministically) {
  // 1 mW is far under any lit network's envelope: every recorder sample
  // violates, deterministically.
  auto run_once = [] {
    sim::SimOptions o = base_options();
    o.obs.enabled = true;
    o.obs.monitors.power_cap_mw = 1.0;
    return sim::Simulation(o).run();
  };
  const auto r1 = run_once();
  EXPECT_GT(r1.monitor_violations, 0u);
  EXPECT_FALSE(r1.monitors_ok());
  ASSERT_EQ(r1.monitors.size(), 1u);
  EXPECT_EQ(r1.monitors[0].first, "power_cap_mw");

  const auto json = sim::to_json(r1);
  EXPECT_NE(json.find("\"obs_monitors\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);

  // Same seed, same verdict bytes — the cross-run observatory depends on it.
  const auto r2 = run_once();
  EXPECT_EQ(r1.monitors, r2.monitors);
  EXPECT_EQ(r1.monitor_violations, r2.monitor_violations);
  EXPECT_EQ(sim::to_json(r2), json);
}

TEST(MonitorIntegration, ViolationEmitsTraceInstantOnMonitorsTrack) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.trace_path = tmp_path("monitor_violation.trace.json");
  o.obs.monitors.power_cap_mw = 1.0;
  (void)sim::Simulation(o).run();
  const auto trace = slurp(o.obs.trace_path);
  std::remove(o.obs.trace_path.c_str());
  EXPECT_NE(trace.find("obs.monitors"), std::string::npos);
  EXPECT_NE(trace.find("monitor.power_cap_mw"), std::string::npos);
  EXPECT_NE(trace.find("\"threshold\":1"), std::string::npos) << "args missing";
}

TEST(MonitorIntegration, GenerousEnvelopesPassEveryCheck) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.monitors.power_cap_mw = 1.0e9;
  o.obs.monitors.throughput_floor = 1.0e-6;
  o.obs.monitors.p99_latency_ceiling = 1.0e9;
  o.obs.monitors.quiescence_deadline = 1000000;
  o.obs.monitor_fail_fast = true;  // must not fire
  const auto r = sim::Simulation(o).run();
  EXPECT_EQ(r.monitor_violations, 0u);
  EXPECT_TRUE(r.monitors_ok());
  EXPECT_EQ(r.monitors.size(), 4u);
  const auto json = sim::to_json(r);
  EXPECT_NE(json.find("\"obs_monitors\""), std::string::npos);
  EXPECT_EQ(json.find("\"ok\": false"), std::string::npos);
}

TEST(MonitorIntegration, FailFastEndsTheRunThroughContracts) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.monitors.power_cap_mw = 1.0;
  o.obs.monitor_fail_fast = true;
  sim::Simulation s(o);
  EXPECT_THROW(s.run(), ModelInvariantError);
}

TEST(MonitorIntegration, NoConfiguredChecksMeansNoBlockAndNoTrack) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.trace_path = tmp_path("monitor_off.trace.json");
  const auto r = sim::Simulation(o).run();
  EXPECT_TRUE(r.monitors.empty());
  EXPECT_EQ(sim::to_json(r).find("obs_monitors"), std::string::npos);
  const auto trace = slurp(o.obs.trace_path);
  std::remove(o.obs.trace_path.c_str());
  // The track list itself must not change for monitor-free traces — the
  // golden trace fixture pins this globally.
  EXPECT_EQ(trace.find("obs.monitors"), std::string::npos);
}

TEST(MonitorIntegration, QuiescenceDeadlineOfOneCycleFlagsDbrConvergence) {
  // Every DBR re-solve takes ring + chain cycles to its grants at minimum,
  // so a 1-cycle deadline must flag each one that moved lanes.
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.monitors.quiescence_deadline = 1;
  const auto r = sim::Simulation(o).run();
  ASSERT_EQ(r.monitors.size(), 1u);
  EXPECT_EQ(r.monitors[0].first, "quiescence_deadline");
  EXPECT_GT(r.monitor_violations, 0u);
}

}  // namespace
