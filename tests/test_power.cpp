// Unit tests for the power model: per-level link power (Table 1), the
// component scaling laws, transitions, and energy metering.
#include <gtest/gtest.h>

#include "power/components.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"

namespace {

using erapid::BoardId;
using erapid::power::ComponentModel;
using erapid::power::EnergyMeter;
using erapid::power::LinkPowerModel;
using erapid::power::PowerLevel;
using erapid::power::step_down;
using erapid::power::step_up;
using erapid::units::GbitsPerSec;
using erapid::units::Milliwatts;
using erapid::units::Volts;

// ---- LinkPowerModel (Table 1 values) ------------------------------------

TEST(LinkPower, Table1PerLevelTotals) {
  LinkPowerModel m;
  EXPECT_DOUBLE_EQ(m.power_mw(PowerLevel::High).value(), 43.03);
  EXPECT_DOUBLE_EQ(m.power_mw(PowerLevel::Mid).value(), 26.00);
  EXPECT_DOUBLE_EQ(m.power_mw(PowerLevel::Low).value(), 8.60);
  EXPECT_DOUBLE_EQ(m.power_mw(PowerLevel::Off).value(), 0.0);
}

TEST(LinkPower, Table1BitRatesAndVoltages) {
  LinkPowerModel m;
  EXPECT_DOUBLE_EQ(m.bitrate_gbps(PowerLevel::High).value(), 5.0);
  EXPECT_DOUBLE_EQ(m.bitrate_gbps(PowerLevel::Mid).value(), 3.3);
  EXPECT_DOUBLE_EQ(m.bitrate_gbps(PowerLevel::Low).value(), 2.5);
  EXPECT_DOUBLE_EQ(m.supply_v(PowerLevel::High).value(), 0.9);
  EXPECT_DOUBLE_EQ(m.supply_v(PowerLevel::Mid).value(), 0.6);
  EXPECT_DOUBLE_EQ(m.supply_v(PowerLevel::Low).value(), 0.45);
}

TEST(LinkPower, VoltageTransitionsCost65Cycles) {
  LinkPowerModel m;
  EXPECT_EQ(m.transition_cycles(PowerLevel::Low, PowerLevel::High), 65u);
  EXPECT_EQ(m.transition_cycles(PowerLevel::High, PowerLevel::Mid), 65u);
  EXPECT_EQ(m.transition_cycles(PowerLevel::Off, PowerLevel::Low), 65u);
  EXPECT_EQ(m.transition_cycles(PowerLevel::Mid, PowerLevel::Mid), 0u);
}

TEST(LinkPower, StepUpAndDownSaturate) {
  EXPECT_EQ(step_up(PowerLevel::Low), PowerLevel::Mid);
  EXPECT_EQ(step_up(PowerLevel::Mid), PowerLevel::High);
  EXPECT_EQ(step_up(PowerLevel::High), PowerLevel::High);
  EXPECT_EQ(step_down(PowerLevel::High), PowerLevel::Mid);
  EXPECT_EQ(step_down(PowerLevel::Mid), PowerLevel::Low);
  EXPECT_EQ(step_down(PowerLevel::Low), PowerLevel::Low);   // no DVS to Off
  EXPECT_EQ(step_down(PowerLevel::Off), PowerLevel::Off);
}

TEST(LinkPower, PowerIsMonotoneInLevel) {
  LinkPowerModel m;
  EXPECT_LT(m.power_mw(PowerLevel::Off), m.power_mw(PowerLevel::Low));
  EXPECT_LT(m.power_mw(PowerLevel::Low), m.power_mw(PowerLevel::Mid));
  EXPECT_LT(m.power_mw(PowerLevel::Mid), m.power_mw(PowerLevel::High));
}

TEST(LinkPower, OverridesForAblation) {
  LinkPowerModel m;
  m.set_power_mw(PowerLevel::High, Milliwatts{50.0});
  m.set_transition_cycles(100, 20);
  EXPECT_DOUBLE_EQ(m.power_mw(PowerLevel::High).value(), 50.0);
  EXPECT_EQ(m.transition_cycles(PowerLevel::Low, PowerLevel::High), 100u);
}

TEST(LinkPower, FixedRateBaselineMakesDvsFree) {
  // An electrical-baseline model pins rate and voltage at every level:
  // transitions then cost only the CDR relock (equal voltage).
  LinkPowerModel m;
  for (auto l : {PowerLevel::Low, PowerLevel::Mid, PowerLevel::High}) {
    m.set_bitrate_gbps(l, GbitsPerSec{6.4});
    m.set_supply_v(l, Volts{1.2});
    m.set_power_mw(l, Milliwatts{128.0});
  }
  EXPECT_DOUBLE_EQ(m.bitrate_gbps(PowerLevel::Low).value(), 6.4);
  EXPECT_EQ(m.transition_cycles(PowerLevel::Low, PowerLevel::High),
            m.freq_relock_cycles());
}

// ---- ComponentModel (§4.1 anchors & scaling laws) ------------------------

TEST(Components, AnchorsReproducePaperBreakdown) {
  ComponentModel m;
  const auto parts = m.breakdown(Volts{0.9}, GbitsPerSec{5.0});
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_NEAR(parts[0].power.value(), 1.5e-3, 1e-9);   // VCSEL 1.5 uW
  EXPECT_NEAR(parts[1].power.value(), 1.23, 1e-9);     // driver
  EXPECT_NEAR(parts[2].power.value(), 1.4e-3, 1e-9);   // photodetector
  EXPECT_NEAR(parts[3].power.value(), 25.02, 1e-9);    // TIA
  EXPECT_NEAR(parts[4].power.value(), 17.05, 1e-9);    // CDR
}

TEST(Components, TotalAtPHighNearQuoted43mW) {
  ComponentModel m;
  // Component sum is 43.30 mW; the paper quotes 43.03 (its own rounding).
  EXPECT_NEAR(m.total_mw(Volts{0.9}, GbitsPerSec{5.0}).value(), 43.03, 0.35);
}

TEST(Components, PLowScalingMatchesQuoted8p6mW) {
  ComponentModel m;
  // The P_low total falls out of the scaling laws to within ~1%.
  EXPECT_NEAR(m.total_mw(Volts{0.45}, GbitsPerSec{2.5}).value(), 8.6, 0.15);
}

TEST(Components, ScalingLawsHaveDocumentedExponents) {
  ComponentModel m;
  // Driver & CDR ∝ V² · BR: halving V at fixed BR quarters them.
  const auto hi = m.breakdown(Volts{0.9}, GbitsPerSec{5.0});
  const auto lo = m.breakdown(Volts{0.45}, GbitsPerSec{5.0});
  EXPECT_NEAR(lo[1].power / hi[1].power, 0.25, 1e-9);
  EXPECT_NEAR(lo[4].power / hi[4].power, 0.25, 1e-9);
  // TIA ∝ V · BR: halving V halves it.
  EXPECT_NEAR(lo[3].power / hi[3].power, 0.5, 1e-9);
  // VCSEL ∝ V only: independent of BR.
  const auto slow = m.breakdown(Volts{0.9}, GbitsPerSec{2.5});
  EXPECT_NEAR(slow[0].power.value(), hi[0].power.value(), 1e-12);
}

TEST(Components, TxRxSplitSumsToTotal) {
  ComponentModel m;
  const Volts v{0.6};
  const GbitsPerSec br{3.3};
  EXPECT_NEAR((m.transmitter_mw(v, br) + m.receiver_mw(v, br)).value(),
              m.total_mw(v, br).value(), 1e-12);
}

TEST(Components, ReceiverDominatesLinkPower) {
  // §3.1: TIA + CDR dominate — the receiver is the power hog.
  ComponentModel m;
  EXPECT_GT(m.receiver_mw(Volts{0.9}, GbitsPerSec{5.0}),
            0.9 * m.total_mw(Volts{0.9}, GbitsPerSec{5.0}));
}

// ---- EnergyMeter ---------------------------------------------------------

TEST(EnergyMeter, IntegratesConstantSource) {
  EnergyMeter meter(1);
  const auto id = meter.add_source(BoardId{0});
  meter.set_power(id, 0, Milliwatts{10.0}, Milliwatts{0.0});
  EXPECT_DOUBLE_EQ(meter.energy_mw_cycles(100).value(), 1000.0);
  EXPECT_DOUBLE_EQ(meter.instantaneous_mw().value(), 10.0);
}

TEST(EnergyMeter, SumsMultipleSources) {
  EnergyMeter meter(1);
  const auto a = meter.add_source(BoardId{0});
  const auto b = meter.add_source(BoardId{0});
  meter.set_power(a, 0, Milliwatts{5.0}, Milliwatts{0.0});
  meter.set_power(b, 0, Milliwatts{7.0}, Milliwatts{0.0});
  EXPECT_DOUBLE_EQ(meter.instantaneous_mw().value(), 12.0);
  meter.set_power(a, 50, Milliwatts{0.0}, Milliwatts{0.0});
  EXPECT_DOUBLE_EQ(meter.energy_mw_cycles(100).value(), 12.0 * 50 + 7.0 * 50);
}

TEST(EnergyMeter, AverageOverCheckpointWindow) {
  EnergyMeter meter(1);
  const auto id = meter.add_source(BoardId{0});
  meter.set_power(id, 0, Milliwatts{100.0}, Milliwatts{0.0});
  meter.checkpoint(1000);  // ignore the first 1000 cycles
  meter.set_power(id, 1500, Milliwatts{0.0}, Milliwatts{0.0});
  EXPECT_DOUBLE_EQ(meter.average_mw(2000).value(), 50.0);
}

TEST(EnergyMeter, RedundantSetIsNoOp) {
  EnergyMeter meter(1);
  const auto id = meter.add_source(BoardId{0});
  meter.set_power(id, 0, Milliwatts{3.0}, Milliwatts{1.0});
  // Same level, later time: no accounting glitch.
  meter.set_power(id, 10, Milliwatts{3.0}, Milliwatts{1.0});
  EXPECT_DOUBLE_EQ(meter.energy_mw_cycles(20).value(), 60.0);
  EXPECT_DOUBLE_EQ(meter.board_laser_mw_cycles(BoardId{0}, 20).value(), 20.0);
}

// ---- per-board energy attribution ------------------------------------------

TEST(EnergyAttribution, SplitsLaserAndSerdesPerBoard) {
  EnergyMeter meter(2);
  const auto a = meter.add_source(BoardId{0});
  const auto b = meter.add_source(BoardId{1});
  meter.set_power(a, 0, Milliwatts{10.0}, Milliwatts{4.0});  // 40% laser
  meter.set_power(b, 0, Milliwatts{10.0}, Milliwatts{4.0});

  EXPECT_DOUBLE_EQ(meter.board_energy_mw_cycles(BoardId{0}, 100).value(), 1000.0);
  EXPECT_DOUBLE_EQ(meter.board_laser_mw_cycles(BoardId{0}, 100).value(), 400.0);

  // Board 1 drops to a level with no laser share: only its serdes part
  // keeps growing, and board 0 is untouched.
  meter.set_power(b, 100, Milliwatts{7.5}, Milliwatts{0.0});
  EXPECT_DOUBLE_EQ(meter.board_laser_mw_cycles(BoardId{1}, 200).value(), 400.0);
  EXPECT_DOUBLE_EQ(meter.board_energy_mw_cycles(BoardId{1}, 200).value(),
                   10.0 * 100 + 7.5 * 100);
  EXPECT_DOUBLE_EQ(meter.board_energy_mw_cycles(BoardId{0}, 200).value(), 2000.0);
  EXPECT_DOUBLE_EQ(meter.energy_mw_cycles(200).value(), 2000.0 + 1750.0);
}

TEST(EnergyAttribution, SingleBoardIntegralIsTheNetworkTotalBitwise) {
  // The board integral sees every update and checkpoint the network total
  // sees, so with one board the two are the same float sum.
  EnergyMeter meter(1);
  const auto a = meter.add_source(BoardId{0});
  const auto b = meter.add_source(BoardId{0});
  meter.set_power(a, 0, Milliwatts{43.03}, Milliwatts{1.2});
  meter.set_power(b, 37, Milliwatts{8.6}, Milliwatts{0.3});
  meter.checkpoint(251);
  meter.set_power(a, 400, Milliwatts{26.0}, Milliwatts{0.7});
  meter.set_power(b, 977, Milliwatts{0.0}, Milliwatts{0.0});
  for (const erapid::Cycle end : {977u, 1333u, 5000u}) {
    EXPECT_EQ(meter.board_energy_mw_cycles(BoardId{0}, end).value(),
              meter.energy_mw_cycles(end).value())
        << "at cycle " << end;
  }
}

TEST(EnergyAttribution, LaserShareFollowsTheComponentModelAtEveryLevel) {
  const ComponentModel comp;
  const LinkPowerModel pw;
  EXPECT_EQ(pw.laser_mw(PowerLevel::Off).value(), 0.0);
  for (const PowerLevel l : LinkPowerModel::kActiveLevels) {
    const double tx = comp.transmitter_mw(pw.supply_v(l), pw.bitrate_gbps(l)).value();
    const double rx = comp.receiver_mw(pw.supply_v(l), pw.bitrate_gbps(l)).value();
    EXPECT_EQ(pw.laser_mw(l).value(), pw.power_mw(l).value() * (tx / (tx + rx)))
        << erapid::power::to_string(l);
    // §3.1: the receiver dominates, so the laser share is a small part.
    EXPECT_GT(pw.laser_mw(l).value(), 0.0);
    EXPECT_LT(pw.laser_mw(l).value(), 0.1 * pw.power_mw(l).value());
  }

  // Two levels quoting the same total keep their own operating points'
  // splits.
  LinkPowerModel same_total;
  same_total.set_power_mw(PowerLevel::Mid, Milliwatts{43.03});
  EXPECT_NE(same_total.laser_mw(PowerLevel::Mid).value(),
            same_total.laser_mw(PowerLevel::High).value());
}

}  // namespace
