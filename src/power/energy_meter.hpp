// Network-wide energy accounting, attributed per board.
//
// Each lane registers its instantaneous power draw (which changes on DVS
// transitions and laser on/off events); the meter time-integrates the sum
// so benches can report the paper's "overall power consumption" panel as
// the time-averaged optical power over the measurement interval.
//
// Every source belongs to one board, and every update carries the laser
// (transmitter: VCSEL + driver) share of the new draw as well as its
// total, so the meter also integrates, per board, the board's total and
// its laser part. The serdes (receiver: PD + TIA + CDR) part is the exact
// complement, total - laser. Only lanes are metered: board buffers and the
// control ring draw nothing here. The per-board integrals see the same
// updates and checkpoints as the network total, so on a one-board meter
// the board total equals the network total bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/hub.hpp"
#include "obs/probe.hpp"
#include "stats/time_weighted.hpp"
#include "util/expect.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace erapid::power {

/// Aggregates per-source power signals into a network total and per-board
/// totals and laser parts (see file comment).
class EnergyMeter {
 public:
  /// A meter for sources on boards [0, boards).
  explicit EnergyMeter(std::uint32_t boards)
      : total_(0, 0.0),
        board_total_(boards, stats::TimeWeighted(0, 0.0)),
        board_laser_(boards, stats::TimeWeighted(0, 0.0)) {}

  /// Registers a new power source on `board`; returns its slot id. A
  /// source draws nothing until its first set_power.
  std::uint32_t add_source(BoardId board) {
    ERAPID_REQUIRE(board.value() < boards(),
                   "power source on board " << board.value() << " of a " << boards()
                                            << "-board meter");
    sources_.push_back({board.value(), 0.0, 0.0});
    return static_cast<std::uint32_t>(sources_.size() - 1);
  }

  /// Mirrors every network-power change onto the hub: a "power.total_mw"
  /// trace counter track (the energy timeline) and a time-weighted gauge.
  /// `hub` is nullable by design (observability off).
  // erapid-analyze: allow(contract-coverage)
  void attach_hub(obs::Hub* hub) {
    hub_ = hub;
    if (hub_ != nullptr) {
      m_total_ = hub_->metrics().gauge("power.total_mw");
    }
  }

  /// Source `id` draws `total` milliwatts from cycle `now` onwards, of
  /// which `laser` on the transmitter side.
  void set_power(std::uint32_t id, Cycle now, units::Milliwatts total, units::Milliwatts laser) {
    ERAPID_REQUIRE(id < sources_.size(),
                   "unregistered power source id=" << id << " (have " << sources_.size() << ")");
    const double mw = total.value();
    const double laser_mw = laser.value();
    ERAPID_REQUIRE(mw >= 0.0, "power draw cannot be negative: " << mw << " mW");
    ERAPID_REQUIRE(laser_mw >= 0.0 && laser_mw <= mw,
                   "laser share must satisfy 0 <= laser <= total, got laser="
                       << laser_mw << " total=" << mw);
    Source& s = sources_[id];
    const double delta = mw - s.mw;
    const double laser_delta = laser_mw - s.laser_mw;
    if (delta == 0.0 && laser_delta == 0.0) return;
    s.mw = mw;
    s.laser_mw = laser_mw;
    total_.add(now, delta);
    board_total_[s.board].add(now, delta);
    board_laser_[s.board].add(now, laser_delta);
    ERAPID_GAUGE_SET(hub_, m_total_, now, total_.level());
    ERAPID_TRACE_COUNTER(hub_, hub_->track_power(), "power.total_mw", now, total_.level());
  }

  /// Instantaneous network power.
  [[nodiscard]] units::Milliwatts instantaneous_mw() const {
    return units::Milliwatts{total_.level()};
  }

  /// Marks the start of the measurement window. The per-board integrals
  /// checkpoint too, so their float sums are partitioned like the total's:
  /// (a·dt1 + a·dt2) is not bitwise a·(dt1 + dt2).
  void checkpoint(Cycle now) {
    ERAPID_EXPECT(now >= window_start_, "checkpoint cannot move the window backwards");
    window_start_ = now, total_.checkpoint(now);
    for (auto& b : board_total_) b.checkpoint(now);
    for (auto& b : board_laser_) b.checkpoint(now);
  }

  /// Average power over [checkpoint, now].
  [[nodiscard]] units::Milliwatts average_mw(Cycle now) const {
    return units::Milliwatts{total_.average(window_start_, now)};
  }

  /// Energy (power integrated over simulated cycles) since construction.
  [[nodiscard]] units::MilliwattCycles energy_mw_cycles(Cycle now) const {
    return units::MilliwattCycles{total_.integral(now)};
  }

  /// Energy drawn by board `b`'s sources since construction.
  [[nodiscard]] units::MilliwattCycles board_energy_mw_cycles(BoardId b, Cycle now) const {
    ERAPID_REQUIRE(b.value() < boards(),
                   "board " << b.value() << " outside a " << boards() << "-board meter");
    return units::MilliwattCycles{board_total_[b.value()].integral(now)};
  }

  /// The laser (transmitter) part of board_energy_mw_cycles.
  [[nodiscard]] units::MilliwattCycles board_laser_mw_cycles(BoardId b, Cycle now) const {
    ERAPID_REQUIRE(b.value() < boards(),
                   "board " << b.value() << " outside a " << boards() << "-board meter");
    return units::MilliwattCycles{board_laser_[b.value()].integral(now)};
  }

  [[nodiscard]] std::size_t sources() const { return sources_.size(); }
  [[nodiscard]] std::uint32_t boards() const {
    return static_cast<std::uint32_t>(board_total_.size());
  }

 private:
  struct Source {
    std::uint32_t board = 0;
    double mw = 0.0;
    double laser_mw = 0.0;
  };

  std::vector<Source> sources_;
  stats::TimeWeighted total_;
  std::vector<stats::TimeWeighted> board_total_;
  std::vector<stats::TimeWeighted> board_laser_;
  Cycle window_start_ = 0;
  obs::Hub* hub_ = nullptr;
  obs::MetricId m_total_ = 0;
};

}  // namespace erapid::power
