// Optical link power model — paper §3.1 and §4.1 (Table 1).
//
// Each lane operates at one of three DVS power levels, or OFF (dynamic link
// shutdown). The paper quotes measured totals per level:
//
//   level   bit rate   V_DD    total link power
//   P_low   2.5 Gb/s   0.45 V   8.60 mW
//   P_mid   3.3 Gb/s   0.60 V  26.00 mW
//   P_high  5.0 Gb/s   0.90 V  43.03 mW
//
// The simulator consumes these per-state totals. The analytic component
// breakdown (VCSEL ∝ V, driver ∝ V²·BR, TIA ∝ V·BR, CDR ∝ V²·BR,
// photodetector) lives in components.hpp and regenerates Table 1.
//
// Transition timing (§4.1): after the transmitter injects the bit-rate
// control packet, the link is disabled for the slow *voltage* transition,
// conservatively 65 cycles; a frequency-only CDR relock takes 12 cycles.
// Waking a dark laser also pays the full 65-cycle penalty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "power/components.hpp"
#include "util/expect.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace erapid::power {

/// Discrete lane power states. Order matters: ++/-- step between levels.
enum class PowerLevel : std::uint8_t { Off = 0, Low = 1, Mid = 2, High = 3 };

[[nodiscard]] constexpr std::string_view to_string(PowerLevel l) {
  switch (l) {
    case PowerLevel::Off: return "OFF";
    case PowerLevel::Low: return "P_low";
    case PowerLevel::Mid: return "P_mid";
    case PowerLevel::High: return "P_high";
  }
  ERAPID_UNREACHABLE("unmodeled power level " << static_cast<int>(l));
}

/// One step up, saturating at High.
[[nodiscard]] constexpr PowerLevel step_up(PowerLevel l) {
  return l == PowerLevel::High ? l : static_cast<PowerLevel>(static_cast<std::uint8_t>(l) + 1);
}

/// One step down, saturating at Low (shutdown to Off is a separate,
/// explicit DLS decision, not a DVS step).
[[nodiscard]] constexpr PowerLevel step_down(PowerLevel l) {
  return (l == PowerLevel::Off || l == PowerLevel::Low)
             ? (l == PowerLevel::Off ? l : PowerLevel::Low)
             : static_cast<PowerLevel>(static_cast<std::uint8_t>(l) - 1);
}

/// Per-level electrical characteristics and transition latencies.
class LinkPowerModel {
 public:
  /// Paper Table 1 defaults.
  LinkPowerModel() = default;

  [[nodiscard]] units::GbitsPerSec bitrate_gbps(PowerLevel l) const {
    return units::GbitsPerSec{table_[idx(l)].bitrate_gbps};
  }
  [[nodiscard]] units::Volts supply_v(PowerLevel l) const {
    return units::Volts{table_[idx(l)].supply_v};
  }
  [[nodiscard]] units::Milliwatts power_mw(PowerLevel l) const {
    return units::Milliwatts{table_[idx(l)].power_mw};
  }

  /// Transmitter (laser: VCSEL + driver) share of the quoted level total,
  /// split by the analytic component model's tx/rx ratio at the level's
  /// operating point. The receiver (serdes) share is the rest. Off draws 0.
  [[nodiscard]] units::Milliwatts laser_mw(PowerLevel l) const {
    if (l == PowerLevel::Off) return units::Milliwatts{0.0};
    const ComponentModel comp;
    const double tx = comp.transmitter_mw(supply_v(l), bitrate_gbps(l)).value();
    const double rx = comp.receiver_mw(supply_v(l), bitrate_gbps(l)).value();
    return units::Milliwatts{tx + rx > 0.0 ? power_mw(l).value() * (tx / (tx + rx)) : 0.0};
  }

  /// Lane pause (cycles) when moving `from` → `to`. Voltage changes
  /// dominate (65 cycles); equal-voltage moves need only the 12-cycle CDR
  /// relock; no-ops are free.
  [[nodiscard]] CycleDelta transition_cycles(PowerLevel from, PowerLevel to) const {
    if (from == to) return 0;
    if (supply_v(from) == supply_v(to)) return freq_relock_cycles_;
    return voltage_transition_cycles_;
  }

  [[nodiscard]] CycleDelta voltage_transition_cycles() const { return voltage_transition_cycles_; }
  [[nodiscard]] CycleDelta freq_relock_cycles() const { return freq_relock_cycles_; }

  /// Overrides for ablation studies and non-optical baselines (e.g. a
  /// fixed-rate electrical SerDes link pins all levels to one rate).
  void set_power_mw(PowerLevel l, units::Milliwatts mw) {
    ERAPID_REQUIRE(mw.value() >= 0.0,
                   "link power cannot be negative: " << mw.value() << " mW");
    table_[idx(l)].power_mw = mw.value();
  }
  void set_bitrate_gbps(PowerLevel l, units::GbitsPerSec gbps) {
    ERAPID_REQUIRE(gbps.value() >= 0.0,
                   "bit rate cannot be negative: " << gbps.value() << " Gb/s");
    table_[idx(l)].bitrate_gbps = gbps.value();
  }
  void set_supply_v(PowerLevel l, units::Volts v) {
    ERAPID_REQUIRE(v.value() >= 0.0,
                   "supply voltage cannot be negative: " << v.value() << " V");
    table_[idx(l)].supply_v = v.value();
  }
  void set_transition_cycles(CycleDelta voltage, CycleDelta freq) {
    ERAPID_REQUIRE(voltage >= freq, "voltage transition (" << voltage
                                                           << " cycles) cannot be faster than "
                                                              "frequency relock ("
                                                           << freq << " cycles)");
    voltage_transition_cycles_ = voltage;
    freq_relock_cycles_ = freq;
  }

  static constexpr std::array kActiveLevels = {PowerLevel::Low, PowerLevel::Mid,
                                               PowerLevel::High};

 private:
  struct LevelSpec {
    double bitrate_gbps = 0.0;
    double supply_v = 0.0;
    double power_mw = 0.0;
  };

  /// Maps a level to its table slot; rejects raw values outside the DVS
  /// bounds [Off, High] (a corrupted message or bad cast would otherwise
  /// read past the table).
  static std::size_t idx(PowerLevel l) {
    ERAPID_REQUIRE(static_cast<std::uint8_t>(l) <= static_cast<std::uint8_t>(PowerLevel::High),
                   "power level outside DVS bounds: " << static_cast<int>(l));
    return static_cast<std::size_t>(l);
  }

  std::array<LevelSpec, 4> table_{{
      {0.0, 0.0, 0.0},      // Off: laser and receiver dark
      {2.5, 0.45, 8.60},    // P_low
      {3.3, 0.60, 26.00},   // P_mid
      {5.0, 0.90, 43.03},   // P_high
  }};
  CycleDelta voltage_transition_cycles_ = 65;
  CycleDelta freq_relock_cycles_ = 12;
};

}  // namespace erapid::power
