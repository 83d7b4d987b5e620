// Optical lane — one (destination coupler, wavelength) channel.
//
// Physically this is one laser in a transmitter's VCSEL array at the source
// board, the shared fiber, and the matching wavelength receiver at the
// destination board (paper §2.2, Figure 2(b)). A lane is the unit of both
// reconfigurable bandwidth (DBR moves lane ownership between boards) and
// power management (DVS scales its bit rate/voltage; DLS darkens it).
//
// State machine:
//   enabled  — this board currently owns the lane (laser may be lit);
//   level    — Off / P_low / P_mid / P_high. Off while enabled = DLS.
//   busy     — serializing a packet until busy_until;
//   paused   — bit-rate/voltage transition until pause_until (the paper's
//              "transmitter ... stops transmission for the duration",
//              65 cycles for voltage moves, 12 for CDR-only relock).
//   failed   — fault injection killed the laser: permanently dark, refuses
//              enable/transmit; a packet mid-serialization is aborted and
//              handed back through fail() for re-homing.
//
// Level changes and disables requested mid-packet are deferred to packet
// completion (packets are atomic in the optical domain). A degraded laser
// (fault injection) carries a level *cap*: requests above the cap are
// clamped, modelling a VCSEL that can no longer sustain its rated drive.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "des/engine.hpp"
#include "optical/receiver.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "router/flit.hpp"
#include "stats/window.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid::optical {

/// One reconfigurable wavelength channel from this board to `ref.dest`.
class Lane {
 public:
  /// `owner` is the transmitting board: the meter charges the lane's power
  /// (and its laser share) to it.
  Lane(des::Engine& engine, const topology::SystemConfig& cfg,
       const power::LinkPowerModel& pw, power::EnergyMeter& meter, BoardId owner,
       topology::LaneRef ref, Receiver* rx);

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // ---- state queries ----
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] power::PowerLevel level() const { return level_; }
  [[nodiscard]] topology::LaneRef ref() const { return ref_; }
  [[nodiscard]] bool failed() const { return failed_; }

  /// Ready to start a packet right now.
  [[nodiscard]] bool available(Cycle now) const {
    return enabled_ && level_ != power::PowerLevel::Off && !pending_disable_ &&
           now >= busy_until_ && now >= pause_until_;
  }

  /// Dark but owned: a DLS wake would make it usable.
  [[nodiscard]] bool can_wake() const {
    return enabled_ && level_ == power::PowerLevel::Off && !pending_disable_;
  }

  // ---- fault injection ----
  /// Permanent laser failure. The lane goes dark immediately (no graceful
  /// drain: the light just dies). If a packet was mid-serialization its
  /// fiber delivery is cancelled, the remote RX reservation is returned,
  /// and the packet is handed back for re-homing on a surviving lane. A
  /// pending release's on_dark chain is dropped (the re-grant it carried is
  /// re-decided by the next reconfiguration window).
  [[nodiscard]] std::optional<router::Packet> fail(Cycle now);

  /// Repairs a failed lane: the laser is replaced/fixed and may be enabled
  /// again. The lane comes back dark and unowned — re-admission into the
  /// allocation happens at the next DBR bandwidth window, not here.
  void repair(Cycle now);

  /// Transient laser degradation: clamps every level request (current and
  /// future) to at most `cap` until clear_level_cap. Capping below the
  /// current level forces an immediate (packet-atomic) down-transition.
  void set_level_cap(power::PowerLevel cap, Cycle now);

  /// Ends the degradation. The lane does not spontaneously re-raise its
  /// level; the next DPM/DBR decision may.
  void clear_level_cap();

  // ---- brownout (degradation controller) ----
  /// Brownout ladder cap: like set_level_cap but owned by the degradation
  /// controller, so the fault plane's clear_level_cap (laser repaired)
  /// cannot lift an active brownout and vice versa. The effective ceiling
  /// is min(level_cap, brownout_cap).
  void set_brownout_cap(power::PowerLevel cap, Cycle now);

  /// Hysteresis recovery lifted the ladder. The lane does not spontaneously
  /// re-raise its level; the next DPM/DBR decision may.
  void clear_brownout_cap();

  /// True while a release (disable) is deferred behind an in-flight packet.
  /// The controller must not shed such a lane: its on_dark chain carries a
  /// reconfiguration re-grant that a second disable would clobber.
  [[nodiscard]] bool release_pending() const { return pending_disable_; }

  [[nodiscard]] bool transmitting(Cycle now) const { return now < busy_until_; }
  [[nodiscard]] bool paused(Cycle now) const { return now < pause_until_; }

  // ---- reconfiguration ----
  /// Lights the lane for this board at `level` (pays the wake transition).
  void enable(Cycle now, power::PowerLevel level);

  /// Releases the lane: goes dark once the in-flight packet (if any)
  /// finishes, then invokes `on_dark` — the reconfiguration manager chains
  /// the re-grant there so two boards never light the same wavelength into
  /// one coupler. Queued flow packets are unaffected (they use other lanes
  /// or wait for a future grant).
  void disable(Cycle now, std::function<void(Cycle)> on_dark = {});

  /// DVS/DLS: move to `target` (deferred past the in-flight packet; pays
  /// the transition pause).
  void request_level(power::PowerLevel target, Cycle now);

  // ---- data path ----
  /// Starts transmitting `p` if available and the remote receiver has a
  /// free RX slot. Returns false without side effects otherwise.
  bool try_transmit(const router::Packet& p, Cycle now);

  /// Called whenever the lane may have become usable (packet done, pause
  /// over, wake complete) — the terminal hooks its scheduler here.
  void set_ready_callback(std::function<void(Cycle)> fn) { on_ready_ = std::move(fn); }

  // ---- LC hardware counters (paper §3) ----
  [[nodiscard]] stats::BusyCounter& busy_counter() { return busy_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  /// Active energy (mW·cycles): link power integrated only over the cycles
  /// the lane was actually serializing packets. This is the
  /// utilization-weighted power metric the paper's evaluation panels track
  /// (a lit-but-idle laser contributes to total power, not active power).
  [[nodiscard]] units::MilliwattCycles active_energy_mw_cycles() const { return active_energy_; }

 private:
  void apply_level(power::PowerLevel target, Cycle now);
  void on_packet_done(Cycle now);
  void update_power(Cycle now);
  [[nodiscard]] power::PowerLevel effective_cap() const;
  void enforce_caps(Cycle now);

  des::Engine& engine_;
  const topology::SystemConfig& cfg_;
  const power::LinkPowerModel& pw_;
  power::EnergyMeter& meter_;
  std::uint32_t meter_id_;
  topology::LaneRef ref_;
  Receiver* rx_;

  bool enabled_ = false;
  bool failed_ = false;
  power::PowerLevel level_ = power::PowerLevel::Off;
  power::PowerLevel level_cap_ = power::PowerLevel::High;
  power::PowerLevel brownout_cap_ = power::PowerLevel::High;
  Cycle busy_until_ = 0;
  Cycle pause_until_ = 0;
  bool pending_disable_ = false;
  std::optional<power::PowerLevel> pending_level_;
  std::optional<router::Packet> in_flight_;
  des::EventHandle busy_event_;
  des::EventHandle deliver_event_;

  stats::BusyCounter busy_;
  std::function<void(Cycle)> on_ready_;
  std::function<void(Cycle)> on_dark_;
  units::MilliwattCycles active_energy_{0.0};
  std::uint64_t packets_sent_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace erapid::optical
