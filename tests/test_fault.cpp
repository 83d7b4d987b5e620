// Fault-injection subsystem tests: FaultPlan parsing/validation, lane
// failure eviction + in-flight re-homing, Lock-Step control-loss retry
// bounds, laser degradation, and the headline recovery property — a
// single lane failure under uniform load is absorbed by DBR within a
// bounded number of reconfiguration windows at negligible throughput cost.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"

namespace {

using namespace erapid;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

// ---- spec grammar -----------------------------------------------------------

TEST(FaultSpec, LaneFailRoundTrip) {
  const auto e = FaultEvent::parse("lane_fail@5000:d2:w1");
  EXPECT_EQ(e.kind, FaultKind::LaneFail);
  EXPECT_EQ(e.at, 5000u);
  EXPECT_EQ(e.dest, BoardId{2});
  EXPECT_EQ(e.wavelength, WavelengthId{1});
  EXPECT_EQ(e.format(), "lane_fail@5000:d2:w1");
  EXPECT_EQ(FaultEvent::parse(e.format()), e);
}

TEST(FaultSpec, LaserDegradeRoundTrip) {
  const auto e = FaultEvent::parse("laser_degrade@8000:d3:w2:low:4000");
  EXPECT_EQ(e.kind, FaultKind::LaserDegrade);
  EXPECT_EQ(e.at, 8000u);
  EXPECT_EQ(e.cap, power::PowerLevel::Low);
  EXPECT_EQ(e.duration, 4000u);
  EXPECT_EQ(e.format(), "laser_degrade@8000:d3:w2:low:4000");
  const auto mid = FaultEvent::parse("laser_degrade@1:d0:w1:mid:0");
  EXPECT_EQ(mid.cap, power::PowerLevel::Mid);
  EXPECT_EQ(mid.duration, 0u);  // until end of run
}

TEST(FaultSpec, CtrlDropRoundTrip) {
  const auto e = FaultEvent::parse("ctrl_drop@6000:ring:b1:n2");
  EXPECT_EQ(e.kind, FaultKind::CtrlDrop);
  EXPECT_EQ(e.target, fault::CtrlTarget::Ring);
  EXPECT_EQ(e.board, BoardId{1});
  EXPECT_EQ(e.count, 2u);
  EXPECT_EQ(e.format(), "ctrl_drop@6000:ring:b1:n2");
  // Implicit count of 1 stays implicit on format.
  const auto one = FaultEvent::parse("ctrl_drop@7000:chain:b0");
  EXPECT_EQ(one.target, fault::CtrlTarget::Chain);
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.format(), "ctrl_drop@7000:chain:b0");
}

TEST(FaultSpec, TransientLaneFailRoundTrip) {
  const auto e = FaultEvent::parse("lane_fail@5000:d2:w1:r9000");
  EXPECT_EQ(e.kind, FaultKind::LaneFail);
  EXPECT_EQ(e.at, 5000u);
  EXPECT_EQ(e.repair_at, 9000u);
  EXPECT_EQ(e.format(), "lane_fail@5000:d2:w1:r9000");
  EXPECT_EQ(FaultEvent::parse(e.format()), e);
  // No repair suffix means permanent (repair_at stays 0, format untouched).
  const auto perm = FaultEvent::parse("lane_fail@5000:d2:w1");
  EXPECT_EQ(perm.repair_at, 0u);
  EXPECT_EQ(perm.format(), "lane_fail@5000:d2:w1");
}

TEST(FaultSpec, BitErrorRoundTrip) {
  const auto e = FaultEvent::parse("bit_error@4500:d2:w2:p0.0005:6000");
  EXPECT_EQ(e.kind, FaultKind::BitError);
  EXPECT_EQ(e.at, 4500u);
  EXPECT_EQ(e.dest, BoardId{2});
  EXPECT_EQ(e.wavelength, WavelengthId{2});
  EXPECT_DOUBLE_EQ(e.ber, 0.0005);
  EXPECT_EQ(e.duration, 6000u);
  EXPECT_EQ(FaultEvent::parse(e.format()), e);
  // Duration 0 = until end of run; BER of exactly 1 is legal.
  const auto full = FaultEvent::parse("bit_error@1:d0:w1:p1:0");
  EXPECT_DOUBLE_EQ(full.ber, 1.0);
  EXPECT_EQ(full.duration, 0u);
  EXPECT_EQ(FaultEvent::parse(full.format()), full);
}

TEST(FaultSpec, RcCrashRoundTrip) {
  const auto e = FaultEvent::parse("rc_crash@7000:b2:r11000");
  EXPECT_EQ(e.kind, FaultKind::RcCrash);
  EXPECT_EQ(e.at, 7000u);
  EXPECT_EQ(e.board, BoardId{2});
  EXPECT_EQ(e.repair_at, 11000u);
  EXPECT_EQ(e.format(), "rc_crash@7000:b2:r11000");
  EXPECT_EQ(FaultEvent::parse(e.format()), e);
  const auto perm = FaultEvent::parse("rc_crash@7000:b2");
  EXPECT_EQ(perm.repair_at, 0u);
  EXPECT_EQ(perm.format(), "rc_crash@7000:b2");
}

TEST(FaultSpec, CrossFieldValidationAtParseTime) {
  // Repair must come strictly after injection.
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:d2:w1:r5000"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:d2:w1:r4999"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("rc_crash@5000:b1:r100"), ModelInvariantError);
  // BER outside (0, 1] is rejected where it is written, not at first use.
  EXPECT_THROW((void)FaultEvent::parse("bit_error@1:d0:w1:p0:100"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("bit_error@1:d0:w1:p1.5:100"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("bit_error@1:d0:w1:pabc:100"), ModelInvariantError);
}

TEST(FaultSpec, DuplicateSameCycleSameTargetRejected) {
  // Two events of one kind on one target at one cycle is an author error.
  EXPECT_THROW((void)FaultPlan::parse_events("lane_fail@1:d1:w1 lane_fail@1:d1:w1"),
               ModelInvariantError);
  EXPECT_THROW(
      (void)FaultPlan::parse_events("ctrl_drop@5:ring:b1 ctrl_drop@5:ring:b1:n3"),
      ModelInvariantError);
  EXPECT_THROW((void)FaultPlan::parse_events("rc_crash@9:b0 rc_crash@9:b0:r99"),
               ModelInvariantError);
  // Different cycle, different target, or different medium is fine.
  EXPECT_NO_THROW((void)FaultPlan::parse_events("lane_fail@1:d1:w1 lane_fail@2:d1:w1"));
  EXPECT_NO_THROW((void)FaultPlan::parse_events("lane_fail@1:d1:w1 lane_fail@1:d1:w2"));
  EXPECT_NO_THROW(
      (void)FaultPlan::parse_events("ctrl_drop@5:ring:b1 ctrl_drop@5:chain:b1"));
  // validate() re-checks a plan assembled programmatically (no parser ran).
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  FaultPlan plan;
  plan.events.push_back(FaultEvent::parse("lane_fail@1:d1:w1"));
  plan.events.push_back(FaultEvent::parse("lane_fail@1:d1:w1"));
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
}

TEST(FaultSpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultEvent::parse("lane_fail5000:d2:w1"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@:d2:w1"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:d2"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:w1:d2"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:d2:w1:extra"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("laser_degrade@1:d0:w1:off:100"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("laser_degrade@1:d0:w1:low"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("ctrl_drop@1:bus:b0"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("ctrl_drop@1:ring:b0:n0"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("meteor_strike@1:d0:w0"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@50x0:d2:w1"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("lane_fail@5000:d2:w1:9000"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("bit_error@1:d0:w1:p0.5"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("bit_error@1:d0:w1:0.5:100"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("rc_crash@1"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("rc_crash@1:d0"), ModelInvariantError);
  EXPECT_THROW((void)FaultEvent::parse("rc_crash@1:b0:r2:x"), ModelInvariantError);
}

TEST(FaultSpec, ListParsingAcceptsMixedSeparators) {
  const auto plan = FaultPlan::parse_events(
      "lane_fail@1:d1:w1, lane_fail@2:d2:w2;\tctrl_drop@3:ring:b0");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].at, 1u);
  EXPECT_EQ(plan.events[2].kind, FaultKind::CtrlDrop);
  EXPECT_EQ(plan.format_events(),
            "lane_fail@1:d1:w1 lane_fail@2:d2:w2 ctrl_drop@3:ring:b0");
  EXPECT_TRUE(FaultPlan::parse_events("").empty());
  EXPECT_TRUE(FaultPlan::parse_events("  \t ").empty());
}

TEST(FaultSpec, ValidateRejectsOutOfRangeEvents) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  auto plan = FaultPlan::parse_events("lane_fail@1:d9:w1");
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
  plan = FaultPlan::parse_events("lane_fail@1:d1:w9");
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
  plan = FaultPlan::parse_events("ctrl_drop@1:ring:b4");
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
  plan = FaultPlan::parse_events("bit_error@1:d9:w1:p0.5:0");
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
  plan = FaultPlan::parse_events("rc_crash@1:b9");
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
  plan = FaultPlan::parse_events("lane_fail@1:d3:w3");
  EXPECT_NO_THROW(plan.validate(cfg));
  plan.ctrl_drop_prob = 1.5;
  EXPECT_THROW(plan.validate(cfg), ModelInvariantError);
}

TEST(FaultPlanBasics, EmptySemantics) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.ctrl_drop_prob = 0.1;
  EXPECT_FALSE(plan.empty());
  plan.ctrl_drop_prob = 0.0;
  plan.events.push_back(FaultEvent::parse("lane_fail@1:d1:w1"));
  EXPECT_FALSE(plan.empty());
}

// ---- simulation-level fault behaviour ---------------------------------------

sim::SimOptions small_options() {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = 0.3;
  o.seed = 1;
  o.warmup_cycles = 12000;
  o.measure_cycles = 12000;
  o.drain_limit = 60000;
  return o;
}

TEST(LaneFailure, EvictsLaneFromMapPermanently) {
  auto o = small_options();
  // Static owner of (d1, w1) is board 2 — an owned, lit lane.
  o.fault = FaultPlan::parse_events("lane_fail@2000:d1:w1");
  sim::Simulation s(o);
  const auto r = s.run();

  auto& map = s.network().lane_map();
  EXPECT_TRUE(map.is_failed(BoardId{1}, WavelengthId{1}));
  EXPECT_FALSE(map.owner(BoardId{1}, WavelengthId{1}).valid());
  EXPECT_EQ(map.failed_count(), 1u);
  EXPECT_EQ(r.fault.lanes_failed, 1u);
  EXPECT_NE(sim::to_json(r).find("\"fault\""), std::string::npos);
  // Granting the dead lane again must be fatal.
  EXPECT_THROW(map.grant(BoardId{1}, WavelengthId{1}, BoardId{3}), ModelInvariantError);
}

TEST(LaneFailure, DoubleFailureIsIdempotent) {
  auto o = small_options();
  o.fault = FaultPlan::parse_events("lane_fail@2000:d1:w1 lane_fail@2500:d1:w1");
  sim::Simulation s(o);
  const auto r = s.run();
  EXPECT_EQ(r.fault.lanes_failed, 1u);
  EXPECT_EQ(s.network().lane_map().failed_count(), 1u);
}

// The acceptance property: one dead lane under uniform load is re-homed by
// the DBR plane within a bounded number of reconfiguration windows, and
// measured throughput stays within 5% of the fault-free run.
TEST(LaneFailure, SingleFailureRecoversWithinBoundedWindows) {
  const auto o_clean = small_options();
  const auto clean = sim::Simulation(o_clean).run();

  auto o = small_options();
  o.fault = FaultPlan::parse_events("lane_fail@2000:d1:w1");
  sim::Simulation s(o);
  const auto r = s.run();

  // The victim flow (board 2 → board 1) was granted a replacement lane…
  EXPECT_EQ(r.fault.reroutes_completed, 1u);
  EXPECT_EQ(r.fault.reroutes_pending, 0u);
  // …within a bounded number of reconfiguration windows (DBR runs every
  // other window in P-B; allow a conservative 8).
  EXPECT_LE(r.fault.worst_time_to_reroute, 8 * o.reconfig.window);
  EXPECT_GT(r.fault.worst_time_to_reroute, 0u);
  EXPECT_GE(s.network().lane_map().lane_count(BoardId{2}, BoardId{1}), 1u);

  // Throughput within 5% of fault-free, and every labelled packet arrived.
  EXPECT_TRUE(r.drained);
  EXPECT_GE(r.accepted_fraction, 0.95 * clean.accepted_fraction);
}

TEST(LaneFailure, InFlightPacketIsRehomedNotLost) {
  // At a moderate load the lane is serializing almost continuously, so a
  // mid-measurement failure aborts an in-flight packet; it must be
  // re-queued and still delivered (conservation holds).
  auto o = small_options();
  o.load_fraction = 0.5;
  o.fault = FaultPlan::parse_events("lane_fail@15000:d1:w1");
  sim::Simulation s(o);
  const auto r = s.run();
  EXPECT_EQ(r.fault.lanes_failed, 1u);
  EXPECT_TRUE(r.drained) << "a re-homed packet was lost";
  EXPECT_EQ(r.labelled_generated, r.labelled_delivered);
}

TEST(LaneFailure, AllLanesOfOneBoardDegradeWithoutDeadlock) {
  // Kill every lane into board 1's coupler (w0 is the dark self slot; w1-w3
  // carry the three remote flows). Nothing can reach board 1 anymore: the
  // run must still terminate cleanly — queues back up, the drain cap hits,
  // and no invariant trips.
  auto o = small_options();
  o.warmup_cycles = 2000;
  o.measure_cycles = 4000;
  o.drain_limit = 12000;
  o.fault = FaultPlan::parse_events(
      "lane_fail@3000:d1:w0 lane_fail@3000:d1:w1 lane_fail@3000:d1:w2 "
      "lane_fail@3000:d1:w3");
  sim::Simulation s(o);
  const auto r = s.run();

  EXPECT_EQ(r.fault.lanes_failed, 4u);
  EXPECT_EQ(s.network().lane_map().failed_count(), 4u);
  EXPECT_FALSE(r.drained);  // labelled packets to board 1 can never arrive
  EXPECT_GT(r.fault.reroutes_pending, 0u);  // no lane toward d1 can be granted
  EXPECT_GT(r.packets_delivered_measured, 0u);  // other flows kept moving
  EXPECT_EQ(r.end_cycle, o.warmup_cycles + o.measure_cycles + o.drain_limit);
}

TEST(LaserDegrade, CapsAndRestores) {
  auto o = small_options();
  o.load_fraction = 0.4;
  o.fault = FaultPlan::parse_events("laser_degrade@4000:d1:w1:low:6000");
  sim::Simulation s(o);
  const auto r = s.run();
  EXPECT_EQ(r.fault.lanes_degraded, 1u);
  EXPECT_EQ(r.fault.lanes_failed, 0u);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.labelled_generated, r.labelled_delivered);
}

// ---- control-packet loss ----------------------------------------------------

TEST(CtrlLoss, RingDropsRetryWithinBudget) {
  auto o = small_options();
  // Two consecutive losses of board 1's ring circulation: both retried,
  // no timeout.
  o.fault = FaultPlan::parse_events("ctrl_drop@3000:ring:b1:n2");
  const auto r = sim::Simulation(o).run();
  EXPECT_EQ(r.control.ctrl_drops, 2u);
  EXPECT_EQ(r.control.ctrl_retries, 2u);
  EXPECT_EQ(r.control.ctrl_timeouts, 0u);
  EXPECT_TRUE(r.drained);
}

TEST(CtrlLoss, RetriesAreBoundedThenBoardSitsOut) {
  auto o = small_options();
  const std::uint32_t limit = o.reconfig.ctrl_retry_limit;
  // One more loss than the retry budget: `limit` losses are recovered by a
  // retransmission each; the final loss exhausts the budget and is booked
  // separately (ctrl_exhausted, plus the window timeout) rather than as a
  // recovered drop.
  o.fault = FaultPlan::parse_events("ctrl_drop@3000:ring:b1:n" +
                                    std::to_string(limit + 1));
  const auto r = sim::Simulation(o).run();
  EXPECT_EQ(r.control.ctrl_drops, limit);
  EXPECT_EQ(r.control.ctrl_retries, limit);
  EXPECT_EQ(r.control.ctrl_timeouts, 1u);
  EXPECT_EQ(r.control.ctrl_exhausted_drops, 1u);
  EXPECT_TRUE(r.drained) << "a sat-out window must not lose packets";
}

TEST(CtrlLoss, ChainDropsHitThePowerCycle) {
  auto o = small_options();
  o.fault = FaultPlan::parse_events("ctrl_drop@3000:chain:b0");
  const auto r = sim::Simulation(o).run();
  EXPECT_EQ(r.control.ctrl_drops, 1u);
  EXPECT_EQ(r.control.ctrl_retries, 1u);
  EXPECT_EQ(r.control.ctrl_timeouts, 0u);
}

TEST(CtrlLoss, RandomLossIsSeedDeterministic) {
  auto o = small_options();
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.fault.ctrl_drop_prob = 0.2;
  o.fault.seed = 7;
  const auto a = sim::Simulation(o).run();
  const auto b = sim::Simulation(o).run();
  EXPECT_GT(a.control.ctrl_drops, 0u);
  EXPECT_EQ(a.control.ctrl_drops, b.control.ctrl_drops);
  EXPECT_EQ(a.control.ctrl_timeouts, b.control.ctrl_timeouts);
  EXPECT_EQ(a.packets_delivered_measured, b.packets_delivered_measured);
  EXPECT_DOUBLE_EQ(a.latency_avg, b.latency_avg);

  // A different fault seed changes the loss pattern but not the workload
  // (the fault stream is independent of the traffic RNG).
  auto o2 = o;
  o2.fault.seed = 8;
  const auto c = sim::Simulation(o2).run();
  EXPECT_EQ(c.packets_generated, a.packets_generated);
}

// ---- no-fault inertness -----------------------------------------------------

TEST(NoFaultPlan, StatsStayZeroAndInert) {
  auto o = small_options();
  o.warmup_cycles = 2000;
  o.measure_cycles = 4000;
  const auto r = sim::Simulation(o).run();
  EXPECT_EQ(sim::to_json(r).find("\"fault\""), std::string::npos);
  EXPECT_EQ(r.fault.lanes_failed, 0u);
  EXPECT_EQ(r.control.ctrl_drops, 0u);
  EXPECT_EQ(r.control.stale_directives, 0u);
  EXPECT_EQ(r.fault.degraded_windows, 0u);
}

}  // namespace
