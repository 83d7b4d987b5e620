// Windowed utilization counters — the "hardware counters located at each LC"
// (paper §3): Link_util and Buffer_util are measured per reconfiguration
// window R_w and reset when the window is harvested.
#pragma once

#include <cstdint>

#include "stats/time_weighted.hpp"
#include "util/types.hpp"

namespace erapid::stats {

/// Counts busy cycles within the current window. Link_util = busy / window.
class BusyCounter {
 public:
  /// Records `cycles` of busy time (a lane serializing a packet calls this
  /// once per transmitted packet with its serialization length).
  void add_busy(CycleDelta cycles) { busy_ += cycles; }

  /// Utilization over a window of `window_len` cycles, clamped to [0,1]
  /// (a packet straddling the window boundary can overshoot slightly).
  [[nodiscard]] double utilization(CycleDelta window_len) const {
    if (window_len == 0) return 0.0;
    const double u = static_cast<double>(busy_) / static_cast<double>(window_len);
    return u > 1.0 ? 1.0 : u;
  }

  [[nodiscard]] CycleDelta busy_cycles() const { return busy_; }

  void reset() { busy_ = 0; }

 private:
  CycleDelta busy_ = 0;
};

/// Tracks queue occupancy as a fraction of capacity, time-averaged per
/// window. Buffer_util = avg(occupancy) / capacity.
class OccupancyTracker {
 public:
  explicit OccupancyTracker(std::uint32_t capacity) : capacity_(capacity) {}

  void set_occupancy(Cycle now, std::uint32_t occupancy) {
    signal_.set(now, static_cast<double>(occupancy));
  }

  /// Average occupancy fraction since the last harvest.
  [[nodiscard]] double utilization(Cycle window_start, Cycle now) const {
    if (capacity_ == 0) return 0.0;
    return signal_.average(window_start, now) / static_cast<double>(capacity_);
  }

  /// Starts a new window at `now`.
  void harvest(Cycle now) { signal_.checkpoint(now); }

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }

 private:
  std::uint32_t capacity_;
  TimeWeighted signal_;
};

}  // namespace erapid::stats
