// Network-wide energy accounting.
//
// Each lane registers its instantaneous power draw (which changes on DVS
// transitions and laser on/off events); the meter time-integrates the sum
// so benches can report the paper's "overall power consumption" panel as
// the time-averaged optical power over the measurement interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/energy_ledger.hpp"
#include "obs/hub.hpp"
#include "obs/probe.hpp"
#include "stats/time_weighted.hpp"
#include "util/expect.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace erapid::power {

/// Aggregates per-source power signals into a network total.
class EnergyMeter {
 public:
  EnergyMeter() : total_(0, 0.0) {}

  /// Registers a new power source; returns its slot id. Sources must be
  /// registered before the simulation starts (the initial level is folded
  /// into the total at t = 0).
  std::uint32_t add_source(units::Milliwatts initial = units::Milliwatts{0.0}) {
    ERAPID_REQUIRE(initial.value() >= 0.0,
                   "initial power draw cannot be negative: " << initial.value() << " mW");
    levels_.push_back(initial.value());
    total_.add(0, initial.value());
    return static_cast<std::uint32_t>(levels_.size() - 1);
  }

  /// Mirrors every network-power change onto the hub: a "power.total_mw"
  /// trace counter track (the energy timeline) and a time-weighted gauge.
  /// `hub` is nullable by design (observability off).
  // erapid-analyze: allow(contract-coverage)
  void attach_hub(obs::Hub* hub) {
    hub_ = hub;
    if (hub_ != nullptr && hub_->enabled()) {
      m_total_ = hub_->metrics().gauge("power.total_mw");
    }
  }

  /// Mirrors every accepted power update (and checkpoint) onto the energy
  /// attribution ledger. `ledger` is nullable by design (telemetry off).
  /// Sources present before attachment are replayed so the mirror starts
  /// from the same levels the meter integrated at t = 0.
  // erapid-analyze: allow(contract-coverage)
  void attach_ledger(obs::EnergyLedger* ledger) {
    ledger_ = ledger;
    if (ledger_ != nullptr) {
      for (std::uint32_t id = 0; id < levels_.size(); ++id) {
        if (levels_[id] != 0.0) ledger_->on_set_power(id, 0, levels_[id]);
      }
    }
  }

  /// Source `id` draws `p` milliwatts from cycle `now` onwards.
  void set_power(std::uint32_t id, Cycle now, units::Milliwatts p) {
    ERAPID_REQUIRE(id < levels_.size(),
                   "unregistered power source id=" << id << " (have " << levels_.size() << ")");
    const double mw = p.value();
    ERAPID_REQUIRE(mw >= 0.0, "power draw cannot be negative: " << mw << " mW");
    const double delta = mw - levels_[id];
    if (delta == 0.0) return;
    levels_[id] = mw;
    total_.add(now, delta);
    if (ledger_ != nullptr) ledger_->on_set_power(id, now, mw);
    ERAPID_GAUGE_SET(hub_, m_total_, now, total_.level());
    ERAPID_TRACE_COUNTER(hub_, hub_->track_power(), "power.total_mw", now, total_.level());
  }

  /// Instantaneous network power.
  [[nodiscard]] units::Milliwatts instantaneous_mw() const {
    return units::Milliwatts{total_.level()};
  }

  /// Marks the start of the measurement window. The ledger mirror must
  /// checkpoint too: a checkpoint partitions the integral's float sum, and
  /// (a·dt1 + a·dt2) is not bitwise a·(dt1 + dt2).
  void checkpoint(Cycle now) {
    ERAPID_EXPECT(now >= window_start_, "checkpoint cannot move the window backwards");
    window_start_ = now, total_.checkpoint(now);
    if (ledger_ != nullptr) ledger_->on_checkpoint(now);
  }

  /// Average power over [checkpoint, now].
  [[nodiscard]] units::Milliwatts average_mw(Cycle now) const {
    return units::Milliwatts{total_.average(window_start_, now)};
  }

  /// Energy (power integrated over simulated cycles) since construction.
  [[nodiscard]] units::MilliwattCycles energy_mw_cycles(Cycle now) const {
    return units::MilliwattCycles{total_.integral(now)};
  }

  [[nodiscard]] std::size_t sources() const { return levels_.size(); }

 private:
  std::vector<double> levels_;
  stats::TimeWeighted total_;
  Cycle window_start_ = 0;
  obs::Hub* hub_ = nullptr;
  obs::EnergyLedger* ledger_ = nullptr;
  obs::MetricId m_total_ = 0;
};

}  // namespace erapid::power
