#include "optical/lane.hpp"

#include <algorithm>

namespace erapid::optical {

using power::PowerLevel;

namespace {
PowerLevel min_level(PowerLevel a, PowerLevel b) {
  return static_cast<std::uint8_t>(a) < static_cast<std::uint8_t>(b) ? a : b;
}
}  // namespace

Lane::Lane(des::Engine& engine, const topology::SystemConfig& cfg,
           const power::LinkPowerModel& pw, power::EnergyMeter& meter, BoardId owner,
           topology::LaneRef ref, Receiver* rx)
    : engine_(engine), cfg_(cfg), pw_(pw), meter_(meter), ref_(ref), rx_(rx) {
  ERAPID_REQUIRE(rx_ != nullptr, "lane needs its wavelength receiver");
  meter_id_ = meter_.add_source(owner);
}

void Lane::update_power(Cycle now) {
  if (enabled_) {
    meter_.set_power(meter_id_, now, pw_.power_mw(level_), pw_.laser_mw(level_));
  } else {
    meter_.set_power(meter_id_, now, units::Milliwatts{0.0}, units::Milliwatts{0.0});
  }
}

PowerLevel Lane::effective_cap() const { return min_level(level_cap_, brownout_cap_); }

void Lane::enable(Cycle now, PowerLevel level) {
  ERAPID_REQUIRE(!failed_, "enabling a failed lane");
  ERAPID_REQUIRE(!enabled_, "enabling a lane this board already holds");
  ERAPID_REQUIRE(level != PowerLevel::Off, "enable requires an active power level");
  enabled_ = true;
  pending_disable_ = false;
  apply_level(min_level(level, effective_cap()), now);
}

void Lane::disable(Cycle now, std::function<void(Cycle)> on_dark) {
  ERAPID_REQUIRE(enabled_, "disabling a lane this board does not hold");
  if (transmitting(now)) {
    pending_disable_ = true;  // finished in on_packet_done
    pending_level_.reset();
    on_dark_ = std::move(on_dark);
    return;
  }
  enabled_ = false;
  pending_disable_ = false;
  pending_level_.reset();
  level_ = PowerLevel::Off;
  update_power(now);
  if (on_dark) on_dark(now);
}

void Lane::request_level(PowerLevel target, Cycle now) {
  ERAPID_REQUIRE(enabled_, "DVS on a lane this board does not hold");
  if (pending_disable_) return;  // release already decided; don't fight it
  target = min_level(target, effective_cap());
  if (target == level_ && !pending_level_) return;
  if (transmitting(now)) {
    pending_level_ = target;  // applied when the packet completes
    return;
  }
  apply_level(target, now);
}

void Lane::apply_level(PowerLevel target, Cycle now) {
  pending_level_.reset();
  if (target == level_) return;
  const CycleDelta pause = pw_.transition_cycles(level_, target);
  ++transitions_;
  level_ = target;
  update_power(now);
  if (target == PowerLevel::Off) return;  // darkening needs no relock
  if (pause > 0) {
    pause_until_ = std::max(pause_until_, now + pause);
    engine_.schedule_at(pause_until_, [this] {
      // Only announce readiness if no later transition extended the pause.
      const Cycle now2 = engine_.now();
      if (now2 >= pause_until_ && on_ready_) on_ready_(now2);
    }, "lane.relock");
  } else if (on_ready_) {
    on_ready_(now);
  }
}

bool Lane::try_transmit(const router::Packet& p, Cycle now) {
  if (!available(now)) return false;
  if (!rx_->reserve_slot()) return false;

  const CycleDelta ser = cfg_.serialization_cycles(pw_.bitrate_gbps(level_));
  ERAPID_INVARIANT(ser >= 1, "serialization must take at least one cycle, got " << ser);
  busy_until_ = now + ser;
  busy_.add_busy(ser);
  active_energy_ += units::energy_over(pw_.power_mw(level_), static_cast<double>(ser));
  ++packets_sent_;

  const Cycle arrive = busy_until_ + cfg_.fiber_delay_cycles;
  const router::Packet copy = p;
  in_flight_ = copy;
  busy_event_ = engine_.schedule_at(
      busy_until_, [this] { on_packet_done(engine_.now()); }, "lane.tx_done");
  deliver_event_ = engine_.schedule_at(
      arrive, [this, copy] { rx_->deliver(copy, engine_.now()); }, "lane.deliver");
  return true;
}

std::optional<router::Packet> Lane::fail(Cycle now) {
  ERAPID_REQUIRE(!failed_, "failing a lane twice");
  failed_ = true;
  std::optional<router::Packet> aborted;
  if (transmitting(now) && in_flight_) {
    // Still serializing: the remaining bits never leave the VCSEL. Cancel
    // both the completion and the fiber delivery, hand the RX slot back,
    // and surface the packet for re-homing. (A packet already fully in the
    // fiber is photons in flight — it arrives regardless.)
    busy_event_.cancel();
    deliver_event_.cancel();
    rx_->abort_reservation();
    aborted = std::move(in_flight_);
    // Un-charge the serialization cycles that never happened.
    const CycleDelta unspent = busy_until_ - now;
    active_energy_ -= units::energy_over(pw_.power_mw(level_), static_cast<double>(unspent));
    --packets_sent_;
    busy_until_ = now;
  }
  in_flight_.reset();
  enabled_ = false;
  pending_disable_ = false;
  pending_level_.reset();
  on_dark_ = nullptr;
  level_ = PowerLevel::Off;
  update_power(now);
  return aborted;
}

void Lane::repair(Cycle now) {
  ERAPID_REQUIRE(failed_, "repairing a lane that is not failed");
  failed_ = false;
  // Dark, unowned, no residual in-flight state: fail() already cleared all
  // of that. The lane simply becomes grantable again.
  ERAPID_INVARIANT(!enabled_ && !in_flight_ && level_ == PowerLevel::Off,
                   "failed lane carried live state into repair");
  update_power(now);
}

void Lane::set_level_cap(PowerLevel cap, Cycle now) {
  ERAPID_REQUIRE(cap != PowerLevel::Off, "degradation cap must be an active level; use fail()");
  level_cap_ = cap;
  enforce_caps(now);
}

void Lane::clear_level_cap() { level_cap_ = PowerLevel::High; }

void Lane::set_brownout_cap(PowerLevel cap, Cycle now) {
  ERAPID_REQUIRE(cap != PowerLevel::Off,
                 "brownout cap must be an active level; sleep idle lanes instead");
  brownout_cap_ = cap;
  enforce_caps(now);
}

void Lane::clear_brownout_cap() { brownout_cap_ = PowerLevel::High; }

void Lane::enforce_caps(Cycle now) {
  if (failed_ || !enabled_) return;
  const PowerLevel cap = effective_cap();
  if (pending_level_) pending_level_ = min_level(*pending_level_, cap);
  if (static_cast<std::uint8_t>(level_) > static_cast<std::uint8_t>(cap)) {
    request_level(cap, now);
  }
}

void Lane::on_packet_done(Cycle now) {
  in_flight_.reset();  // the packet is fully in the fiber from here on
  if (pending_disable_) {
    pending_disable_ = false;
    enabled_ = false;
    pending_level_.reset();
    level_ = PowerLevel::Off;
    update_power(now);
    if (on_dark_) {
      auto cb = std::move(on_dark_);
      on_dark_ = nullptr;
      cb(now);
    }
    return;
  }
  if (pending_level_) {
    apply_level(*pending_level_, now);
    return;  // apply_level schedules the ready callback after the pause
  }
  if (on_ready_) on_ready_(now);
}

}  // namespace erapid::optical
