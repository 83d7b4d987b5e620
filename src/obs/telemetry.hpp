// Windowed telemetry plane — the periodic JSONL emitter that ties the
// traffic-matrix estimator and the phase detector to the simulation clock.
//
// Every `obs.telemetry_window` cycles a self-rescheduling DES event samples
// the run (utilization, queue depths, lit lanes, power, and each board's
// laser/serdes energy split from power::EnergyMeter) through a
// driver-provided callback, updates the phase detector, and appends one
// flat JSON record (schema `erapid-telemetry-1`) to the configured path.
// The stream is the machine front-end of tools/obs/telemetry_report.py and
// the offline input a predictive-DPM policy would train on.
//
// Byte-compatibility discipline: the emitter exists only when
// `obs.telemetry` is configured. Its window event would otherwise shift
// DES sequence numbers, so an unconfigured run schedules nothing and the
// default-off golden reports stay byte-identical. Record content is
// simulated-time only and every container iterates in deterministic order,
// so two same-seed runs write byte-identical streams.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "obs/phase_detect.hpp"
#include "obs/tm_estimator.hpp"
#include "util/types.hpp"

namespace erapid::obs {

class Hub;
struct ObsConfig;

/// One board's cumulative energy split (mW·cycles). Only lanes are
/// metered, so the record's `buffer` and `ctrl` buckets are always zero.
struct BoardEnergy {
  double laser_mw_cycles = 0.0;   ///< transmitter side (VCSEL + driver)
  double serdes_mw_cycles = 0.0;  ///< receiver side (PD + TIA + CDR)
};

/// One window's worth of run state, sampled by the driver at the window
/// boundary. The telemetry plane owns no network pointers: the simulation
/// hands it a sampler so obs stays below sim in the layer order.
struct WindowObservables {
  double utilization = 0.0;        ///< delivered payload / capacity, this window
  std::uint64_t delivered = 0;     ///< packets delivered since the run started
  std::uint32_t lanes_lit = 0;
  std::uint32_t lanes_total = 0;
  std::uint64_t queue_depth = 0;   ///< total source backlog, flits
  double power_mw = 0.0;           ///< instantaneous draw at the boundary
  double energy_mw_cycles = 0.0;   ///< the meter's own cumulative integral
  std::vector<BoardEnergy> boards; ///< per board, in board order
  std::string workload_phase;      ///< active workload phase name, or empty
};

/// Periodic JSONL emitter (see file comment).
class Telemetry {
 public:
  /// Schema version stamped into every record.
  static constexpr const char* kSchema = "erapid-telemetry-1";

  using Sampler = std::function<WindowObservables(Cycle)>;

  /// Opens the JSONL stream and builds the estimator/detector pair from
  /// the hub's `obs.telemetry_*` keys; call start() to arm the first
  /// window event.
  Telemetry(des::Engine& engine, std::uint32_t boards, Hub& hub, Sampler sampler);

  /// Arms the first window boundary `obs.telemetry_window` cycles out.
  /// Idempotent.
  void start();

  /// Cancels the pending window event and flushes the stream. Idempotent.
  void finish();

  /// Traffic-matrix feed: accounts one delivered packet. Called from the
  /// simulation's delivery callback.
  void on_packet(std::uint32_t src_board, std::uint32_t dst_board, std::uint64_t bytes) {
    tm_.on_packet(src_board, dst_board, bytes);
  }

  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t phase_changes() const { return detector_.changes(); }
  [[nodiscard]] std::uint64_t phase_id() const { return detector_.phase_id(); }
  [[nodiscard]] const TmEstimator& tm() const { return tm_; }

 private:
  void on_window();
  void emit_record(Cycle now, const WindowObservables& o, bool phase_changed);

  des::Engine& engine_;
  Hub& hub_;
  const ObsConfig& cfg_;  ///< hub_.config()
  Sampler sampler_;
  TmEstimator tm_;
  PhaseDetector detector_;
  std::ofstream out_;
  des::EventHandle next_;
  std::uint64_t windows_ = 0;
  std::uint64_t last_delivered_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace erapid::obs
