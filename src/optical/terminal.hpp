// Per-board optical terminal: the board-to-SRS interface of Figure 2(a).
//
// Owns, for each remote board d:
//   * the per-destination transmit queue (the "transmitter queue" whose
//     Buffer_util the LC hardware counters measure);
//   * a TxSink attached to the board router's remote output port that
//     reassembles flits into packets (packets, not flits, cross the
//     optical domain — §2.1) with credit-based backpressure into the IBI;
//   * W lanes (one per wavelength), enabled according to the global lane
//     ownership map; a scheduler that spreads queued packets across all
//     currently-owned lanes (the bandwidth-multiplying mechanism of §2.2).
//
// The terminal is entirely event-driven: the scheduler runs on packet
// arrival, lane-ready, and RX-slot-freed events only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "obs/hub.hpp"
#include "optical/lane.hpp"
#include "optical/receiver.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"
#include "stats/window.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid::optical {

/// LC-visible per-lane measurement for one reconfiguration window.
struct LaneSnapshot {
  topology::LaneRef ref;
  bool enabled = false;
  power::PowerLevel level = power::PowerLevel::Off;
  double link_util = 0.0;
};

/// LC-visible per-flow (this board → dest) measurement.
struct FlowSnapshot {
  BoardId dest;
  double buffer_util = 0.0;  ///< time-averaged queue occupancy / capacity, in [0, 1].
  std::uint32_t queued = 0;
  std::uint32_t lanes_enabled = 0;
};

/// Board-side optical transmit/receive complex.
class OpticalTerminal {
 public:
  /// `router` must already have its D ejection outputs added (ports
  /// 0..D-1); the terminal adds one remote output port per other board, in
  /// increasing board order. `receivers` is the global flat array
  /// [board * W + wavelength]. `hub` (optional) receives lane grant→release
  /// async spans and harvest-time utilization series.
  OpticalTerminal(des::Engine& engine, const topology::SystemConfig& cfg,
                  const power::LinkPowerModel& pw, power::EnergyMeter& meter,
                  BoardId self, router::Router& router,
                  const std::vector<Receiver*>& receivers, obs::Hub* hub = nullptr);

  OpticalTerminal(const OpticalTerminal&) = delete;
  OpticalTerminal& operator=(const OpticalTerminal&) = delete;

  // ---- reconfiguration interface (driven by the RC) ----
  void apply_grant(BoardId d, WavelengthId w, power::PowerLevel level, Cycle now);
  void apply_release(BoardId d, WavelengthId w, Cycle now,
                     std::function<void(Cycle)> on_dark = {});
  void request_lane_level(BoardId d, WavelengthId w, power::PowerLevel level, Cycle now);

  // ---- fault interface (driven by the FaultInjector) ----
  /// Permanently fails this board's laser on lane (d, w). An in-flight
  /// packet is re-homed to the front of the flow's transmit queue (it will
  /// relaunch on a surviving lane or wait for a re-grant). Returns the
  /// number of packets re-homed (0 or 1).
  std::uint32_t fail_lane(BoardId d, WavelengthId w, Cycle now);

  /// Repairs this board's laser on lane (d, w). The lane becomes grantable
  /// again; DBR re-admits it at the next bandwidth window.
  void repair_lane(BoardId d, WavelengthId w, Cycle now);

  /// Degrades this board's laser on lane (d, w): clamps its power level to
  /// `cap` until clear_lane_level_cap.
  void cap_lane_level(BoardId d, WavelengthId w, power::PowerLevel cap, Cycle now);
  void clear_lane_level_cap(BoardId d, WavelengthId w);

  // ---- link-level ARQ (driven by the remote receiver's CRC check) ----
  /// NAK for a packet this board transmitted toward `d` that failed the
  /// CRC at the receiver. Bounded retransmission with exponential backoff:
  /// after arq_nak_cycles + (arq_backoff_cycles << (k-1)) the packet is
  /// re-queued at the head of the flow. Past arq_retry_limit the packet is
  /// dead-lettered (accounted, surfaced via the dead-letter callback, and
  /// never delivered).
  void arq_nak(BoardId d, const router::Packet& p, Cycle now);

  /// Fires for every packet the ARQ path gives up on.
  void set_dead_letter_callback(std::function<void(const router::Packet&, Cycle)> fn) {
    on_dead_letter_ = std::move(fn);
  }

  [[nodiscard]] std::uint64_t crc_naks() const { return crc_naks_; }
  [[nodiscard]] std::uint64_t arq_retransmits() const { return arq_retransmits_; }
  [[nodiscard]] std::uint64_t arq_dead_letters() const { return arq_dead_letters_; }

  /// Harvests and resets the LC hardware counters for the window that
  /// started at `window_start` and ends `now`.
  void harvest(Cycle window_start, Cycle now, std::vector<LaneSnapshot>& lanes,
               std::vector<FlowSnapshot>& flows);

  // ---- scheduler entry points ----
  /// Tries to launch queued packets for destination d.
  void pump_flow(BoardId d, Cycle now);

  // ---- introspection ----
  [[nodiscard]] BoardId self() const { return self_; }
  [[nodiscard]] std::size_t flow_queue_size(BoardId d) const { return flows_[d.value()].q.size(); }
  [[nodiscard]] Lane& lane(BoardId d, WavelengthId w) { return *lanes_[lane_index(d, w)]; }
  [[nodiscard]] const Lane& lane(BoardId d, WavelengthId w) const {
    return *lanes_[lane_index(d, w)];
  }
  [[nodiscard]] std::uint32_t remote_out_port(BoardId d) const;

  /// Sum of active energy (mW·cycles) over all of this board's lanes.
  [[nodiscard]] units::MilliwattCycles active_energy_mw_cycles() const;

 private:
  /// Reassembles router flits back into packets for one destination. The
  /// per-VC buffer may hold several complete packets (short packets commit
  /// one at a time, blocking on a full transmit queue) plus at most one
  /// partial tail packet; each flit's `packet_flits` field delimits them.
  class TxSink : public router::FlitReceiver {
   public:
    TxSink(OpticalTerminal& t, BoardId dest, std::uint32_t vcs)
        : t_(t), dest_(dest), assembly_(vcs), blocked_(vcs, false), expect_(vcs, 0) {}
    void bind(std::uint32_t out_port) { out_port_ = out_port; }
    void receive_flit(const router::Flit& f, std::uint32_t vc, Cycle now) override;
    /// Retries commits that were blocked on a full transmit queue.
    void retry_blocked(Cycle now);

   private:
    void try_commit(std::uint32_t vc, Cycle now);

    OpticalTerminal& t_;
    BoardId dest_;
    std::uint32_t out_port_ = 0;
    std::vector<std::vector<router::Flit>> assembly_;
    std::vector<bool> blocked_;
    /// Next in-packet flit index owed on each VC (0 = expecting a head).
    std::vector<std::uint32_t> expect_;
  };

  struct Flow {
    std::deque<router::Packet> q;
    stats::OccupancyTracker occ;
    router::RoundRobinArbiter lane_rr;
    std::unique_ptr<TxSink> sink;
    explicit Flow(std::uint32_t cap, std::uint32_t wavelengths)
        : occ(cap), lane_rr(wavelengths) {}
  };

  [[nodiscard]] std::size_t lane_index(BoardId d, WavelengthId w) const;
  void enqueue_packet(BoardId d, const router::Packet& p, Cycle now);

  /// Trace id for the grant→release async span of lane (self, d, w):
  /// globally unique across terminals so overlapping lifecycles render
  /// as separate arrows in the viewer.
  [[nodiscard]] std::uint64_t lane_span_id(BoardId d, WavelengthId w) const;

  des::Engine& engine_;
  const topology::SystemConfig& cfg_;
  const power::LinkPowerModel& pw_;
  BoardId self_;
  router::Router& router_;
  std::vector<Flow> flows_;                   ///< indexed by dest board (self unused)
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< dest-major, W per dest, self row null
  /// Scratch for pump_flow's per-iteration list of available lanes
  /// (ascending), hoisted out of the hot loop. Refilled at the top of every
  /// iteration, so the reentrant pump path (launch → retry_blocked →
  /// try_commit → enqueue_packet → pump_flow) sees exactly the decisions
  /// the local vector produced; only the allocation is shared.
  std::vector<std::uint32_t> lane_scan_;
  std::function<void(const router::Packet&, Cycle)> on_dead_letter_;
  std::uint64_t crc_naks_ = 0;
  std::uint64_t arq_retransmits_ = 0;
  std::uint64_t arq_dead_letters_ = 0;
  obs::Hub* hub_;
  obs::MetricId m_lane_util_ = 0;
  obs::MetricId m_buffer_util_ = 0;
  obs::MetricId m_tx_packets_ = 0;
};

}  // namespace erapid::optical
