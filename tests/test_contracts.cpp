// Contract tests: every ERAPID_REQUIRE / ERAPID_INVARIANT placed by the
// determinism-contract layer (DESIGN.md §7) is deliberately violated here
// and must throw ModelInvariantError with a useful diagnostic. If one of
// these stops throwing, a contract was deleted.
//
// Layout mirrors the instrumented subsystems: des, reconfig, optical,
// power. Each TEST names the contract it violates.
#include <gtest/gtest.h>

#include "des/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "reconfig/allocation.hpp"
#include "reconfig/dpm_strategy.hpp"
#include "reconfig/manager.hpp"
#include "reconfig/policy.hpp"
#include "resilience/controller.hpp"
#include "tests_support.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid {
namespace {

using power::PowerLevel;
using test::LaneRig;

// ---- des ------------------------------------------------------------------

TEST(ContractDes, ScheduleInThePastViolatesRequire) {
  des::Engine engine;
  engine.schedule_at(10, [] {});
  engine.run_all();
  ASSERT_EQ(engine.now(), 10u);
  EXPECT_THROW(engine.schedule_at(5, [] {}), ModelInvariantError);
}

TEST(ContractDes, ScheduleDelayOverflowViolatesRequire) {
  des::Engine engine;
  engine.schedule_at(10, [] {});
  engine.run_all();
  EXPECT_THROW(engine.schedule(kNeverCycle, [] {}), ModelInvariantError);
}

TEST(ContractDes, ScheduleAtNowIsAllowed) {
  des::Engine engine;
  bool ran = false;
  engine.schedule_at(0, [&] { ran = true; });
  engine.run_all();
  EXPECT_TRUE(ran);
}

// ---- reconfig -------------------------------------------------------------

TEST(ContractReconfig, DuplicateWavelengthInOwnershipViolatesRequire) {
  std::vector<reconfig::FlowStatsEntry> flows;
  reconfig::FlowStatsEntry f;
  f.src = BoardId{1};
  f.buffer_util = 0.9;
  flows.push_back(f);
  std::vector<reconfig::LaneOwnership> lanes = {
      {WavelengthId{1}, BoardId{}},
      {WavelengthId{1}, BoardId{}},  // duplicate slot for one wavelength
  };
  EXPECT_THROW((void)reconfig::allocate_lanes(BoardId{0}, flows, lanes, reconfig::DbrPolicy{},
                                        PowerLevel::High),
               ModelInvariantError);
}

TEST(ContractReconfig, SelfFlowViolatesRequire) {
  std::vector<reconfig::FlowStatsEntry> flows;
  reconfig::FlowStatsEntry f;
  f.src = BoardId{0};  // a board never reports a flow to itself
  flows.push_back(f);
  EXPECT_THROW((void)reconfig::allocate_lanes(BoardId{0}, flows, {}, reconfig::DbrPolicy{},
                                        PowerLevel::High),
               ModelInvariantError);
}

TEST(ContractReconfig, InvalidFlowSourceViolatesRequire) {
  std::vector<reconfig::FlowStatsEntry> flows(1);  // src left invalid
  EXPECT_THROW((void)reconfig::allocate_lanes(BoardId{0}, flows, {}, reconfig::DbrPolicy{},
                                        PowerLevel::High),
               ModelInvariantError);
}

TEST(ContractReconfig, TerminalCountMismatchViolatesRequire) {
  des::Engine engine;
  topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  std::vector<optical::OpticalTerminal*> too_few(1, nullptr);
  EXPECT_THROW(
      reconfig::ReconfigManager(engine, cfg, reconfig::ReconfigConfig{}, map, too_few),
      ModelInvariantError);
}

TEST(ContractReconfig, ZeroWindowViolatesRequire) {
  des::Engine engine;
  topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  std::vector<optical::OpticalTerminal*> terms(2, nullptr);
  reconfig::ReconfigConfig rc;
  rc.window = 0;
  EXPECT_THROW(reconfig::ReconfigManager(engine, cfg, rc, map, terms), ModelInvariantError);
}

TEST(ContractReconfig, ZeroControlHopLatencyViolatesRequire) {
  des::Engine engine;
  topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  std::vector<optical::OpticalTerminal*> terms(2, nullptr);
  reconfig::ReconfigConfig rc;
  rc.ring_hop_cycles = 0;
  EXPECT_THROW(reconfig::ReconfigManager(engine, cfg, rc, map, terms), ModelInvariantError);
}

TEST(ContractReconfig, EwmaAlphaOutOfRangeViolatesRequire) {
  reconfig::DpmPolicy policy;
  EXPECT_THROW(reconfig::EwmaDpm(policy, 0.0), ModelInvariantError);
  EXPECT_THROW(reconfig::EwmaDpm(policy, 1.5), ModelInvariantError);
  EXPECT_NO_THROW(reconfig::EwmaDpm(policy, 1.0));
}

TEST(ContractReconfig, LinkUtilOutOfRangeViolatesRequire) {
  reconfig::DpmPolicy policy;
  EXPECT_THROW((void)reconfig::dpm_decision(PowerLevel::High, 1.5, 0.0, true, policy),
               ModelInvariantError);
  EXPECT_THROW((void)reconfig::dpm_decision(PowerLevel::High, -0.1, 0.0, true, policy),
               ModelInvariantError);
  EXPECT_THROW((void)reconfig::dpm_decision(PowerLevel::High, 0.5, 1.1, true, policy),
               ModelInvariantError);
}

// ---- optical --------------------------------------------------------------

TEST(ContractOptical, WavelengthCollisionViolatesBijectionInvariant) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  // λ0 at board 0 is the dark spare; lighting it twice is the collision the
  // lane<->wavelength bijection forbids.
  map.grant(BoardId{0}, WavelengthId{0}, BoardId{1});
  EXPECT_THROW(map.grant(BoardId{0}, WavelengthId{0}, BoardId{2}), ModelInvariantError);
}

TEST(ContractOptical, GrantToSelfViolatesRequire) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  EXPECT_THROW(map.grant(BoardId{0}, WavelengthId{0}, BoardId{0}), ModelInvariantError);
}

TEST(ContractOptical, GrantOnFailedLaneViolatesRequire) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  map.mark_failed(BoardId{0}, WavelengthId{0});
  EXPECT_THROW(map.grant(BoardId{0}, WavelengthId{0}, BoardId{1}), ModelInvariantError);
}

TEST(ContractOptical, ReleaseOfDarkLaneViolatesRequire) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  EXPECT_THROW(map.release(BoardId{0}, WavelengthId{0}), ModelInvariantError);
}

TEST(ContractOptical, LaneOutOfRangeViolatesRequire) {
  topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 1;
  topology::Rwa rwa(cfg.num_boards_total());
  topology::LaneMap map(cfg, rwa);
  EXPECT_THROW((void)map.owner(BoardId{99}, WavelengthId{0}), ModelInvariantError);
}

TEST(ContractOptical, DisableOfUnheldLaneViolatesRequire) {
  LaneRig rig;
  EXPECT_THROW(rig.lane->disable(0), ModelInvariantError);
}

TEST(ContractOptical, DvsOnUnheldLaneViolatesRequire) {
  LaneRig rig;
  EXPECT_THROW(rig.lane->request_level(PowerLevel::Low, 0), ModelInvariantError);
}

TEST(ContractOptical, DoubleEnableViolatesRequire) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  EXPECT_THROW(rig.lane->enable(0, PowerLevel::High), ModelInvariantError);
}

TEST(ContractOptical, EnableAtOffViolatesRequire) {
  LaneRig rig;
  EXPECT_THROW(rig.lane->enable(0, PowerLevel::Off), ModelInvariantError);
}

TEST(ContractOptical, AbortWithoutReservationViolatesRequire) {
  LaneRig rig;
  EXPECT_THROW(rig.rx->abort_reservation(), ModelInvariantError);
}

// ---- power ----------------------------------------------------------------

TEST(ContractPower, NegativeLinkPowerViolatesRequire) {
  power::LinkPowerModel pw;
  EXPECT_THROW(pw.set_power_mw(PowerLevel::High, units::Milliwatts{-1.0}), ModelInvariantError);
}

TEST(ContractPower, NegativeBitrateViolatesRequire) {
  power::LinkPowerModel pw;
  EXPECT_THROW(pw.set_bitrate_gbps(PowerLevel::Low, units::GbitsPerSec{-2.5}),
               ModelInvariantError);
}

TEST(ContractPower, NegativeSupplyViolatesRequire) {
  power::LinkPowerModel pw;
  EXPECT_THROW(pw.set_supply_v(PowerLevel::Mid, units::Volts{-0.6}), ModelInvariantError);
}

TEST(ContractPower, LevelOutsideDvsBoundsViolatesRequire) {
  power::LinkPowerModel pw;
  // A corrupted message or bad cast can materialize any raw value in a
  // PowerLevel; the table lookup must reject it, not read past the array.
  EXPECT_THROW((void)pw.power_mw(static_cast<PowerLevel>(9)), ModelInvariantError);
}

TEST(ContractPower, UnmodeledLevelNameIsUnreachable) {
  EXPECT_THROW((void)power::to_string(static_cast<PowerLevel>(7)), ModelInvariantError);
}

TEST(ContractPower, UnregisteredMeterSourceViolatesRequire) {
  power::EnergyMeter meter(1);
  EXPECT_THROW(meter.set_power(3, 0, units::Milliwatts{10.0}, units::Milliwatts{0.0}),
               ModelInvariantError);
  EXPECT_THROW((void)meter.add_source(BoardId{1}), ModelInvariantError);  // a 1-board meter
}

TEST(ContractPower, NegativeMeterPowerViolatesRequire) {
  power::EnergyMeter meter(1);
  const auto id = meter.add_source(BoardId{0});
  EXPECT_THROW(meter.set_power(id, 0, units::Milliwatts{-5.0}, units::Milliwatts{0.0}),
               ModelInvariantError);
  // A laser share above the total is not a split.
  EXPECT_THROW(meter.set_power(id, 0, units::Milliwatts{1.0}, units::Milliwatts{2.0}),
               ModelInvariantError);
}

// ---- obs: monitor lifecycle ------------------------------------------------

// finalize() closes the MonitorSet for good: it runs exactly once, and
// every online feed rejects samples arriving after it. A monitor quietly
// accepting post-finalize traffic would mean verdicts were rendered from a
// partial run — these pin the lifecycle shut.

obs::MonitorSet finalized_monitors() {
  obs::MonitorConfig cfg;
  cfg.power_cap_mw = 1000.0;
  cfg.quiescence_deadline = 100000;
  cfg.max_recovery_cycles = 100000;
  obs::MonitorSet mon(cfg, /*fail_fast=*/false, /*trace=*/nullptr, 0);
  mon.sample_power(10, 50.0);
  mon.finalize({});
  return mon;
}

TEST(ContractObs, MonitorDoubleFinalizeViolatesRequire) {
  auto mon = finalized_monitors();
  EXPECT_THROW(mon.finalize({}), ModelInvariantError);
}

TEST(ContractObs, PowerSampleAfterFinalizeViolatesRequire) {
  auto mon = finalized_monitors();
  EXPECT_THROW(mon.sample_power(20, 50.0), ModelInvariantError);
}

TEST(ContractObs, RecoveryAfterFinalizeViolatesRequire) {
  auto mon = finalized_monitors();
  EXPECT_THROW(mon.recovery(20, 5), ModelInvariantError);
}

TEST(ContractObs, DbrResolveAfterFinalizeViolatesRequire) {
  auto mon = finalized_monitors();
  EXPECT_THROW(mon.dbr_resolve(20), ModelInvariantError);
}

TEST(ContractObs, DbrQuiescedAfterFinalizeViolatesRequire) {
  auto mon = finalized_monitors();
  EXPECT_THROW(mon.dbr_quiesced(20, 25), ModelInvariantError);
}

// ---- resilience ------------------------------------------------------------

resilience::DegradeConfig record_power_cap() {
  resilience::DegradeConfig c;
  c.power_cap = resilience::ResponsePolicy::Record;
  return c;
}

TEST(ContractResilience, NamelessViolationViolatesRequire) {
  test::ControllerTargets t;
  resilience::DegradeController ctrl(record_power_cap(), 1000.0, t.map, t.terms,
                                     /*hub=*/nullptr);
  EXPECT_THROW(ctrl.on_violation(nullptr, 10, 1200.0, 1000.0),
               ModelInvariantError);
}

TEST(ContractResilience, NegativePowerSampleViolatesRequire) {
  test::ControllerTargets t;
  resilience::DegradeController ctrl(record_power_cap(), 1000.0, t.map, t.terms,
                                     /*hub=*/nullptr);
  EXPECT_THROW(ctrl.on_power_sample(10, -1.0), ModelInvariantError);
}

TEST(ContractResilience, TerminalCountMismatchViolatesRequire) {
  test::ControllerTargets t;
  t.terms.pop_back();
  EXPECT_THROW(resilience::DegradeController(record_power_cap(), 1000.0, t.map, t.terms,
                                             /*hub=*/nullptr),
               ModelInvariantError);
}

// ---- diagnostics ----------------------------------------------------------

TEST(ContractDiagnostics, MessageCarriesKindExpressionLocationAndValues) {
  des::Engine engine;
  engine.schedule_at(10, [] {});
  engine.run_all();
  try {
    engine.schedule_at(5, [] {});
    FAIL() << "contract did not fire";
  } catch (const ModelInvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition violated"), std::string::npos) << what;
    EXPECT_NE(what.find("when >= now_"), std::string::npos) << what;
    EXPECT_NE(what.find("engine.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("when=5"), std::string::npos) << what;
    EXPECT_NE(what.find("now=10"), std::string::npos) << what;
  }
}

TEST(ContractDiagnostics, InvariantAndUnreachableAreDistinguishable) {
  try {
    ERAPID_UNREACHABLE("test message " << 42);
  } catch (const ModelInvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unreachable code reached"), std::string::npos) << what;
    EXPECT_NE(what.find("test message 42"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace erapid
