// Self-healing tests: transient lane failures (repair + DBR re-admission),
// CRC/ARQ link-level recovery, and RC crash / ring-failover behaviour.
//
// The headline properties from the resilience roadmap item:
//   * a transient LaneFail recovers accepted throughput to within 2% of the
//     fault-free run once the repaired lane is re-admitted;
//   * an RC crash never deadlocks the Lock-Step protocol — the watchdog
//     regenerates the ring token and the run drains;
//   * packet corruption is absorbed by bounded ARQ (no silent loss): every
//     labelled packet is either delivered or explicitly dead-lettered.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/simulation.hpp"
#include "util/expect.hpp"

namespace {

using namespace erapid;
using fault::FaultPlan;

sim::SimOptions base_options() {
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

// ---- transient lane failure + re-admission ----------------------------------

TEST(SelfHealing, TransientLaneFailRecoversThroughput) {
  auto clean = base_options();
  const auto ref = sim::Simulation(clean).run();

  auto o = base_options();
  // Fail an owned lane early in warmup, repair it mid-warmup: by the time
  // the measurement interval opens the DBR plane must have re-admitted the
  // lane and throughput must be back to the fault-free level (within 2%).
  o.fault = FaultPlan::parse_events("lane_fail@3000:d1:w1:r6000");
  sim::Simulation s(o);
  const auto r = s.run();

  EXPECT_EQ(r.fault.lanes_failed, 1u);
  EXPECT_EQ(r.fault.lanes_repaired, 1u);
  EXPECT_EQ(r.fault.readmissions_completed, 1u);
  EXPECT_EQ(r.fault.readmissions_pending, 0u);
  EXPECT_GE(r.fault.worst_downtime, 3000u);
  // Re-admission happens at a bandwidth window: the wait from repair to
  // re-grant is bounded by the DPM/DBR alternation (two windows) plus the
  // protocol's stage latencies.
  EXPECT_LE(r.fault.worst_readmission_wait, 2 * o.reconfig.window + 2000);
  EXPECT_TRUE(r.drained);
  EXPECT_GE(r.accepted_fraction, 0.98 * ref.accepted_fraction);

  // The lane is live again: not failed, and owned by some board.
  auto& map = s.network().lane_map();
  EXPECT_FALSE(map.is_failed(BoardId{1}, WavelengthId{1}));
  EXPECT_EQ(map.failed_count(), 0u);
}

TEST(SelfHealing, TransientFaultRunsAreDeterministic) {
  auto o = base_options();
  o.fault = FaultPlan::parse_events(
      "lane_fail@3000:d1:w1:r6000 bit_error@4000:d2:w2:p0.0001:5000 "
      "rc_crash@5000:b3:r9000");
  const auto a = sim::Simulation(o).run();
  const auto b = sim::Simulation(o).run();
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_delivered_measured, b.packets_delivered_measured);
  EXPECT_EQ(a.fault.crc_dropped, b.fault.crc_dropped);
  EXPECT_EQ(a.fault.arq_retransmits, b.fault.arq_retransmits);
  EXPECT_EQ(a.fault.readmissions_completed, b.fault.readmissions_completed);
  EXPECT_EQ(a.fault.worst_readmission_wait, b.fault.worst_readmission_wait);
  EXPECT_DOUBLE_EQ(a.latency_avg, b.latency_avg);
}

// ---- RC crash / ring failover ------------------------------------------------

TEST(SelfHealing, RcCrashNeverDeadlocks) {
  auto o = base_options();
  // Permanent crash: the board's RC dies and never comes back. The ring
  // must bypass it (watchdog token regeneration) and the run must drain —
  // a hung Lock-Step window would strand labelled packets and fail here.
  o.fault = FaultPlan::parse_events("rc_crash@5000:b2");
  sim::Simulation s(o);
  const auto r = s.run();

  EXPECT_EQ(r.control.rc_crashes, 1u);
  EXPECT_EQ(r.control.rc_repairs, 0u);
  EXPECT_GE(r.control.watchdog_fires, 1u);
  EXPECT_GE(r.control.tokens_regenerated, 1u);
  EXPECT_GT(r.control.frozen_windows, 0u);
  EXPECT_TRUE(r.drained) << "RC crash must not deadlock the protocol";
  EXPECT_EQ(r.labelled_generated, r.labelled_delivered);
  EXPECT_TRUE(s.network().reconfig_manager().rc_dead(BoardId{2}));
}

TEST(SelfHealing, RcCrashRepairRejoinsTheRing) {
  auto o = base_options();
  o.fault = FaultPlan::parse_events("rc_crash@5000:b2:r9000");
  sim::Simulation s(o);
  const auto r = s.run();

  EXPECT_EQ(r.control.rc_crashes, 1u);
  EXPECT_EQ(r.control.rc_repairs, 1u);
  EXPECT_FALSE(s.network().reconfig_manager().rc_dead(BoardId{2}));
  EXPECT_TRUE(r.drained);
  // Windows opened during the outage froze the dead board's lanes.
  EXPECT_GT(r.control.frozen_windows, 0u);
  // After rejoin the protocol runs clean: later windows are not frozen.
  EXPECT_LT(r.control.frozen_windows, r.control.power_cycles + r.control.bandwidth_cycles);
}

// ---- CRC + ARQ ---------------------------------------------------------------

TEST(SelfHealing, ArqRecoversCorruptedPackets) {
  auto o = base_options();
  // Moderate corruption window on one lane: drops happen, every one is
  // retransmitted within the retry budget, nothing is abandoned.
  o.fault = FaultPlan::parse_events("bit_error@4000:d1:w1:p0.0002:8000");
  const auto r = sim::Simulation(o).run();

  EXPECT_GT(r.fault.crc_dropped, 0u);
  EXPECT_GT(r.fault.arq_retransmits, 0u);
  EXPECT_EQ(r.fault.arq_dead_letters, 0u);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.labelled_generated, r.labelled_delivered);
}

TEST(SelfHealing, ArqDeadLettersOnExhaustionAndRunStillDrains) {
  auto o = base_options();
  // Static allocation (no DBR to move flows off the poisoned lane) and a
  // BER of 1: every packet on that lane corrupts on every attempt, so each
  // exhausts its retry budget and dead-letters. The drain loop must not
  // wait forever for packets that can never arrive. Every abandoned packet
  // costs its full retry ladder (NAK + exponential backoff per attempt) on
  // a strictly serial lane, so keep the poisoned flow lightly loaded and
  // give the drain room for the ladder of the last labelled packets.
  o.reconfig.mode = reconfig::NetworkMode::np_nb();
  o.system.nodes_per_board = 1;
  o.load_fraction = 0.15;
  o.measure_cycles = 6000;
  o.drain_limit = 200000;
  o.fault = FaultPlan::parse_events("bit_error@2000:d1:w1:p1:0");
  const auto r = sim::Simulation(o).run();

  EXPECT_GT(r.fault.crc_dropped, 0u);
  EXPECT_GT(r.fault.arq_dead_letters, 0u);
  EXPECT_TRUE(r.drained) << "dead-lettered packets must not stall the drain";
  EXPECT_LT(r.labelled_delivered, r.labelled_generated);
  // Retransmissions stayed within the configured budget per packet.
  EXPECT_LE(r.fault.arq_retransmits,
            r.fault.crc_dropped * o.system.arq_retry_limit);
}

// ---- chaos: fault storm under an active brownout ladder ---------------------

/// A tight power cap (deep ladder: sleeps + sheds) with a transient fault
/// storm landing mid-descent. The two planes must stay disjoint: lanes the
/// controller put to sleep or shed are policy decisions, not outages, so
/// the fault plane's downtime/recovery accounting covers exactly the
/// storm's own lanes.
sim::SimOptions chaos_options() {
  auto o = base_options();
  o.load_fraction = 0.5;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  // Deep brownout sheds most of the capacity while the storm's ARQ ladder
  // retries on top of it — the backlog drains, but slowly.
  o.drain_limit = 200000;
  o.obs.enabled = true;
  o.obs.monitor_fail_fast = true;
  o.obs.monitors.power_cap_mw = 100.0;
  o.degrade.power_cap = resilience::ResponsePolicy::Shed;
  o.degrade.cooldown_cycles = 1000;
  o.degrade.recover_cycles = 500000;  // hold the brownout to the end
  o.degrade.shed_step = 2;
  // Two transient lane failures and a corruption window, all landing while
  // the ladder is still stepping down.
  o.fault = FaultPlan::parse_events(
      "lane_fail@6000:d1:w1:r9000 lane_fail@7000:d3:w3:r11000 "
      "bit_error@6500:d2:w2:p0.0003:4000");
  return o;
}

TEST(Chaos, StormUnderBrownoutKeepsFaultAndPolicyAccountingDisjoint) {
  const auto r = sim::Simulation(chaos_options()).run();

  // The ladder went deep: lanes were slept and shed while the storm ran.
  ASSERT_TRUE(r.resilience.has_value());
  EXPECT_TRUE(r.resilience->engaged);
  EXPECT_GT(r.resilience->lanes_shed, 0u);
  EXPECT_GT(r.resilience->lanes_slept + r.resilience->lanes_shed, 1u);
  EXPECT_TRUE(r.drained);

  // Fault accounting covers exactly the storm's two transient lanes —
  // slept and shed lanes never enter the downtime/recovery books.
  EXPECT_EQ(r.fault.lanes_failed, 2u);
  EXPECT_EQ(r.fault.lanes_repaired, 2u);
  EXPECT_EQ(r.fault.readmissions_pending, 0u);
  EXPECT_LE(r.fault.readmissions_completed, 2u);
  // Downtime is the storm's own fail→repair arc (3000 / 4000 cycles), not
  // the much longer policy-held brownout window.
  EXPECT_GE(r.fault.worst_downtime, 3000u);
  EXPECT_LT(r.fault.worst_downtime,
            static_cast<CycleDelta>(r.resilience->time_degraded));
}

}  // namespace
