// Survivability control plane tests (src/resilience/*).
//
// Unit layer: ResponsePolicy parsing and DegradeConfig cross-field
// validation — every rejection the strict `degrade.*` surface promises.
//
// Integration layer: a load/power-cap point that fail-fast-aborts at HEAD
// must, under `degrade.power_cap = shed`, complete with the brownout
// ladder engaged, violations suppressed, and nonzero accepted throughput;
// the run is byte-deterministic (same seed, heap and calendar queues) and
// its full report is pinned against a committed golden fixture. A config
// with no `degrade.*` key must stay byte-inert (no `resilience` block).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "resilience/controller.hpp"
#include "resilience/policy.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"
#include "util/expect.hpp"

namespace {

using namespace erapid;

// ---- unit: policy surface ---------------------------------------------------

TEST(ResponsePolicy, ParseAndNameRoundTrip) {
  using resilience::ResponsePolicy;
  const ResponsePolicy all[] = {ResponsePolicy::Record, ResponsePolicy::Degrade,
                                ResponsePolicy::Shed, ResponsePolicy::Abort};
  for (const auto p : all) {
    EXPECT_EQ(resilience::parse_policy(resilience::policy_name(p)), p);
  }
}

TEST(ResponsePolicy, ParseRejectsUnknownToken) {
  EXPECT_THROW(resilience::parse_policy("panic"), ModelInvariantError);
  EXPECT_THROW(resilience::parse_policy(""), ModelInvariantError);
  EXPECT_THROW(resilience::parse_policy("Record"), ModelInvariantError);
}

obs::ObsConfig armed_obs() {
  obs::ObsConfig o;
  o.enabled = true;
  o.monitors.power_cap_mw = 100.0;
  o.monitors.throughput_floor = 0.1;
  o.monitors.p99_latency_ceiling = 500.0;
  o.monitors.max_recovery_cycles = 10000;
  return o;
}

TEST(DegradeConfig, NoPolicyIsInertAndValid) {
  resilience::DegradeConfig d;
  EXPECT_FALSE(d.any());
  obs::ObsConfig off;  // obs disabled is fine when no policy is set
  d.validate(off, /*bandwidth_reconfig=*/false);
}

TEST(DegradeConfig, KnobRangesCheckedEvenWithoutPolicies) {
  obs::ObsConfig off;
  {
    resilience::DegradeConfig d;
    d.cooldown_cycles = 0;
    EXPECT_THROW(d.validate(off, false), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.recover_cycles = 0;
    EXPECT_THROW(d.validate(off, false), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.recover_margin = 1.0;  // must be strictly inside (0, 1)
    EXPECT_THROW(d.validate(off, false), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.shed_step = 0;
    EXPECT_THROW(d.validate(off, false), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.max_shed_fraction = 1.5;
    EXPECT_THROW(d.validate(off, false), ModelInvariantError);
  }
}

TEST(DegradeConfig, PolicyRequiresObsEnabled) {
  resilience::DegradeConfig d;
  d.power_cap = resilience::ResponsePolicy::Record;
  obs::ObsConfig off = armed_obs();
  off.enabled = false;
  EXPECT_THROW(d.validate(off, true), ModelInvariantError);
  d.validate(armed_obs(), true);
}

TEST(DegradeConfig, PolicyRequiresItsCheckArmed) {
  resilience::DegradeConfig d;
  d.power_cap = resilience::ResponsePolicy::Degrade;
  obs::ObsConfig o = armed_obs();
  o.monitors.power_cap_mw = 0.0;  // check disarmed
  EXPECT_THROW(d.validate(o, true), ModelInvariantError);
}

TEST(DegradeConfig, ShedRequiresBandwidthReconfig) {
  resilience::DegradeConfig d;
  d.power_cap = resilience::ResponsePolicy::Shed;
  EXPECT_THROW(d.validate(armed_obs(), /*bandwidth_reconfig=*/false),
               ModelInvariantError);
  d.validate(armed_obs(), /*bandwidth_reconfig=*/true);
}

TEST(DegradeConfig, EndOfRunChecksAdmitRecordOrAbortOnly) {
  using resilience::ResponsePolicy;
  {
    resilience::DegradeConfig d;
    d.throughput_floor = ResponsePolicy::Degrade;
    EXPECT_THROW(d.validate(armed_obs(), true), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.p99_ceiling = ResponsePolicy::Shed;
    EXPECT_THROW(d.validate(armed_obs(), true), ModelInvariantError);
  }
  {
    resilience::DegradeConfig d;
    d.recovery_deadline = ResponsePolicy::Degrade;
    EXPECT_THROW(d.validate(armed_obs(), true), ModelInvariantError);
  }
  resilience::DegradeConfig d;
  d.throughput_floor = ResponsePolicy::Record;
  d.p99_ceiling = ResponsePolicy::Abort;
  d.recovery_deadline = ResponsePolicy::Record;
  d.validate(armed_obs(), true);
}

TEST(DegradeController, RefusesToBuildWithoutAnyPolicy) {
  resilience::DegradeConfig d;
  test::ControllerTargets t;
  EXPECT_THROW(resilience::DegradeController(d, 100.0, t.map, t.terms, nullptr),
               ModelInvariantError);
}

TEST(DegradeController, BrownoutLadderNeedsThePowerCapItDefends) {
  resilience::DegradeConfig d;
  d.power_cap = resilience::ResponsePolicy::Degrade;
  test::ControllerTargets t;
  EXPECT_THROW(resilience::DegradeController(d, 0.0, t.map, t.terms, nullptr),
               ModelInvariantError);
}

// ---- integration ------------------------------------------------------------

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

/// The pinned brownout point: a power cap the P-B small system violates at
/// its steady state but can live under once the ladder engages. Fail-fast
/// is ON — without the shed policy this exact config aborts the run.
sim::SimOptions brownout_options() {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.monitor_fail_fast = true;
  o.obs.monitors.power_cap_mw = 200.0;
  o.degrade.power_cap = resilience::ResponsePolicy::Shed;
  o.degrade.cooldown_cycles = 1000;
  // Recovery frozen for the pinned run: the point stays brownout-held to
  // its end (HysteresisRecovery below exercises the way back up).
  o.degrade.recover_cycles = 500000;
  o.degrade.shed_step = 2;
  return o;
}

TEST(Brownout, FailFastAbortsWithoutAPolicy) {
  sim::SimOptions o = brownout_options();
  o.degrade = resilience::DegradeConfig{};  // no policy: HEAD behaviour
  sim::Simulation s(o);
  EXPECT_THROW(s.run(), ModelInvariantError);
}

TEST(Brownout, ShedPolicyCompletesTheAbortingPoint) {
  const auto r = sim::Simulation(brownout_options()).run();
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_TRUE(r.resilience->engaged);
  EXPECT_GT(r.resilience->steps_down, 0u);
  EXPECT_GT(r.resilience->suppressed_violations, 0u);
  // Every recorded violation was suppressed — none unwound the run.
  EXPECT_EQ(r.resilience->suppressed_violations, r.monitor_violations);
  EXPECT_GT(r.accepted_fraction, 0.0);
  EXPECT_GT(r.resilience->time_degraded, 0u);

  const auto json = sim::to_json(r);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"engaged\": true"), std::string::npos);
}

TEST(Brownout, FlightDumpHoldsTheViolationAndTheLadderStep) {
  // Armed, the black box dumps on every suppressed violation; the ring it
  // dumps holds both the monitor's violation and the ladder's answer to it.
  const std::string dump = testing::TempDir() + "brownout_flight.json";
  std::remove(dump.c_str());
  sim::SimOptions o = brownout_options();
  o.obs.flight_recorder_depth = 128;
  o.obs.flight_recorder_path = dump;
  sim::Simulation(o).run();

  std::ifstream in(dump);
  ASSERT_TRUE(in) << "no flight dump at " << dump;
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  EXPECT_NE(text.str().find("\"reason\": \"monitor_violation\""), std::string::npos);
  EXPECT_NE(text.str().find("\"kind\": \"resilience.step_down\""), std::string::npos);
  EXPECT_NE(text.str().find("\"kind\": \"monitor.power_cap_mw\""), std::string::npos);
}

TEST(Brownout, ViolationsStopOnceTheLadderHolds) {
  // Once the ladder reaches the rung that fits under the cap, the
  // remaining samples stay clean: the monitor's violation tally equals the
  // count the controller suppressed during the descent, and the descent is
  // short (bounded by the ladder depth plus cooldown re-fires).
  const auto r = sim::Simulation(brownout_options()).run();
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_EQ(r.monitor_violations, r.resilience->suppressed_violations);
  // The run samples power hundreds of times; a violation tally this small
  // means the breach window closed right after the descent.
  EXPECT_LE(r.monitor_violations, r.resilience->steps_down + 4);
}

TEST(Brownout, SameSeedTwiceIsByteIdentical) {
  const auto a = sim::to_json(sim::Simulation(brownout_options()).run());
  const auto b = sim::to_json(sim::Simulation(brownout_options()).run());
  EXPECT_EQ(a, b);
}

TEST(Brownout, NoPolicyMeansNoResilienceBlock) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.monitors.power_cap_mw = 1.0e9;  // armed but never violated
  const auto r = sim::Simulation(o).run();
  EXPECT_FALSE(r.resilience.has_value());
  EXPECT_EQ(sim::to_json(r).find("\"resilience\""), std::string::npos);
}

TEST(Brownout, RecordPolicySuppressesWithoutActing) {
  sim::SimOptions o = brownout_options();
  o.degrade.power_cap = resilience::ResponsePolicy::Record;
  const auto r = sim::Simulation(o).run();
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_FALSE(r.resilience->engaged);  // record never touches the ladder
  EXPECT_EQ(r.resilience->steps_down, 0u);
  EXPECT_GT(r.resilience->suppressed_violations, 0u);
  EXPECT_EQ(r.resilience->suppressed_violations, r.monitor_violations);
}

TEST(Brownout, DeepLadderSleepsAndShedsUnderATightCap) {
  // 100 mW sits under even the all-P_low envelope of the fully lit small
  // system (16 lanes × 8.6 mW = 137.6 mW), so the ladder must walk past
  // both cap rungs into sleeping idle lanes and shedding from the DBR
  // pool — and the run still completes with usable throughput.
  sim::SimOptions o = brownout_options();
  o.obs.monitors.power_cap_mw = 100.0;
  const auto r = sim::Simulation(o).run();
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_EQ(r.resilience->peak_stage, resilience::Stage::Shed);
  EXPECT_GT(r.resilience->lanes_slept, 0u);
  EXPECT_GT(r.resilience->lanes_shed, 0u);
  EXPECT_GT(r.accepted_fraction, 0.0);
  EXPECT_TRUE(r.drained);
  // Shed lanes are healthy withdrawals, never faults: the fault plane must
  // not see them.
  EXPECT_EQ(sim::to_json(r).find("\"fault\""), std::string::npos);
}

TEST(Brownout, HysteresisRecoveryStepsBackUp) {
  // A short-lived pressure spike: cap the envelope only a little under the
  // steady state, then let the margin and a short sustain window walk the
  // ladder back to Normal within the run.
  sim::SimOptions o = brownout_options();
  o.degrade.recover_cycles = 2000;
  o.degrade.recover_margin = 0.9;
  const auto r = sim::Simulation(o).run();
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_TRUE(r.resilience->engaged);
  EXPECT_GT(r.resilience->steps_up, 0u);
}

// ---- golden fixture ---------------------------------------------------------

TEST(GoldenBrownout, ReportMatchesCommittedFixtureExactly) {
  // Brownout.CalendarQueueMatchesHeapByteExactly covers the heap queue.
  test::expect_golden(sim::to_json(sim::Simulation(brownout_options()).run()) + "\n",
                      "golden_brownout_small.json", "brownout golden");
}

}  // namespace
