// Determinism and golden-fixture regression tests.
//
// The DES engine promises byte-identical behaviour for identical seeds
// (FIFO tie-breaking at equal timestamps, no wall-clock or address-based
// ordering anywhere). These tests pin that promise end-to-end through the
// JSON report: every mode, with and without a fault plan, run twice, must
// serialize to the exact same string.
//
// The golden fixture locks the complete report of the small Fig. 5 uniform
// configuration byte-for-byte against a committed file. Tolerance is zero:
// any diff means model timing or policy semantics changed — regenerate
// with ERAPID_REGEN_GOLDEN=1 only when the change is intended, and say so
// in the commit message (policy in tests_support.hpp).
#include <gtest/gtest.h>

#include <string>

#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"

namespace {

using namespace erapid;

sim::SimOptions base_options() {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.load_fraction = 0.5;
  o.seed = 1;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.drain_limit = 60000;
  return o;
}

fault::FaultPlan storm_plan() {
  auto plan = fault::FaultPlan::parse_events(
      "lane_fail@5000:d1:w1 laser_degrade@6000:d2:w2:low:3000 "
      "ctrl_drop@7000:ring:b1:n2 ctrl_drop@9000:chain:b0");
  plan.ctrl_drop_prob = 0.05;
  plan.seed = 42;
  return plan;
}

/// Every transient (self-healing) fault class at once: a repairing lane
/// failure, a bounded corruption window, an RC crash+repair, plus control
/// losses — the storm the transient golden fixture pins.
fault::FaultPlan transient_storm_plan() {
  auto plan = fault::FaultPlan::parse_events(
      "lane_fail@5000:d1:w1:r9000 bit_error@4500:d2:w2:p0.0005:6000 "
      "laser_degrade@6000:d3:w3:low:3000 rc_crash@7000:b2:r11000 "
      "ctrl_drop@9000:ring:b1:n2");
  plan.seed = 42;
  return plan;
}

class DeterminismByMode : public testing::TestWithParam<reconfig::NetworkMode> {};

TEST_P(DeterminismByMode, SameSeedTwiceIsByteIdentical) {
  sim::SimOptions o = base_options();
  o.reconfig.mode = GetParam();
  const auto a = sim::to_json(sim::Simulation(o).run());
  const auto b = sim::to_json(sim::Simulation(o).run());
  EXPECT_EQ(a, b);
  // No-fault reports must not mention the fault subsystem at all.
  EXPECT_EQ(a.find("\"fault\""), std::string::npos);
}

TEST_P(DeterminismByMode, SameSeedTwiceWithFaultPlanIsByteIdentical) {
  sim::SimOptions o = base_options();
  o.reconfig.mode = GetParam();
  o.fault = storm_plan();
  const auto a = sim::to_json(sim::Simulation(o).run());
  const auto b = sim::to_json(sim::Simulation(o).run());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeterminismByMode,
                         testing::Values(reconfig::NetworkMode::np_nb(),
                                         reconfig::NetworkMode::p_nb(),
                                         reconfig::NetworkMode::np_b(),
                                         reconfig::NetworkMode::p_b()),
                         [](const auto& param_info) {
                           std::string n(param_info.param.name);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Determinism, FaultPlanChangesReportButStaysDeterministic) {
  sim::SimOptions o = base_options();
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  const auto clean = sim::to_json(sim::Simulation(o).run());
  o.fault = storm_plan();
  const auto faulty = sim::to_json(sim::Simulation(o).run());
  EXPECT_NE(clean, faulty);
  EXPECT_NE(faulty.find("\"fault\""), std::string::npos);
  EXPECT_NE(faulty.find("\"lanes_failed\": 1"), std::string::npos);
}

TEST(Determinism, TransientStormSameSeedTwiceIsByteIdentical) {
  sim::SimOptions o = base_options();
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.fault = transient_storm_plan();
  const auto a = sim::to_json(sim::Simulation(o).run());
  const auto b = sim::to_json(sim::Simulation(o).run());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"lanes_repaired\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"rc_repairs\": 1"), std::string::npos);
}

// ---- golden fixtures --------------------------------------------------------

/// Complement on R(1,16,4) under P-B: each router has 4 node inputs plus 16
/// wavelength inputs with 4 VCs each, i.e. 80 input VCs — more than one
/// 64-bit word. The other goldens run on 4 boards (32 router VCs), so this
/// is the fixture that pins VA/SA grant order on wide routers.
sim::SimOptions wide_options() {
  sim::SimOptions o;
  o.system.boards = 16;
  o.system.nodes_per_board = 4;
  o.pattern = traffic::PatternKind::Complement;
  o.load_fraction = 0.5;
  o.seed = 1;
  o.warmup_cycles = 2000;
  o.measure_cycles = 4000;
  o.drain_limit = 60000;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  return o;
}

TEST(Golden, ComplementWideReportMatchesCommittedFixtureExactly) {
  test::expect_report_golden(wide_options(), "golden_complement_wide.json",
                             "wide-router golden");
}

TEST(Golden, TransientStormReportMatchesCommittedFixtureExactly) {
  sim::SimOptions o = base_options();
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.fault = transient_storm_plan();
  test::expect_golden(sim::to_json(sim::Simulation(o).run()) + "\n",
                      "golden_transient_storm.json", "transient-storm golden");
}

TEST(Golden, Fig5UniformReportMatchesCommittedFixtureExactly) {
  sim::SimOptions o = base_options();  // the Fig. 5 uniform small config
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  test::expect_golden(sim::to_json(sim::Simulation(o).run()) + "\n",
                      "golden_fig5_uniform.json", "Fig. 5 golden report");
}

}  // namespace
