#include "resilience/controller.hpp"

#include <string>
#include <string_view>

#include "optical/terminal.hpp"
#include "util/expect.hpp"

namespace erapid::resilience {

using power::PowerLevel;

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::Normal: return "normal";
    case Stage::CapMid: return "cap_mid";
    case Stage::CapLow: return "cap_low";
    case Stage::SleepIdle: return "sleep_idle";
    case Stage::Shed: return "shed";
  }
  ERAPID_UNREACHABLE("unmodeled ladder stage " << static_cast<int>(s));
}

DegradeController::DegradeController(const DegradeConfig& cfg, double power_cap_mw,
                                     topology::LaneMap& lane_map,
                                     const std::vector<optical::OpticalTerminal*>& terminals,
                                     obs::Hub* hub)
    : cfg_(cfg), cap_mw_(power_cap_mw), hub_(hub), lane_map_(lane_map), terminals_(terminals) {
  ERAPID_REQUIRE(cfg_.any(), "degradation controller built with no policy configured");
  if (cfg_.power_cap.has_value() && (*cfg_.power_cap == ResponsePolicy::Degrade ||
                                     *cfg_.power_cap == ResponsePolicy::Shed)) {
    ERAPID_REQUIRE(cap_mw_ > 0.0,
                   "brownout ladder needs the power-cap threshold it defends");
  }
  ERAPID_REQUIRE(terminals_.size() == lane_map_.boards(),
                 "degradation controller needs one terminal per board");
  const auto pool = lane_map_.boards() * lane_map_.wavelengths();
  shed_limit_ =
      static_cast<std::uint32_t>(cfg_.max_shed_fraction * static_cast<double>(pool));
  if (hub_ != nullptr) {
    auto& m = hub_->metrics();
    m_degraded_time_ = m.histogram("resilience.degraded_time");
    m_shed_batch_ = m.histogram("resilience.shed_batch");
    m_restore_batch_ = m.histogram("resilience.restore_batch");
  }
}

std::optional<ResponsePolicy> DegradeController::policy_for(const char* name) const {
  const std::string_view n = name != nullptr ? name : "";
  if (n == "power_cap_mw") return cfg_.power_cap;
  if (n == "throughput_floor") return cfg_.throughput_floor;
  if (n == "p99_latency_ceiling") return cfg_.p99_ceiling;
  if (n == "max_recovery_cycles") return cfg_.recovery_deadline;
  // quiescence_deadline / workload_deadline keep their configured fate.
  return std::nullopt;
}

obs::MonitorSet::ActuationDecision DegradeController::on_violation(const char* name,
                                                                   Cycle now,
                                                                   double /*value*/,
                                                                   double /*threshold*/) {
  ERAPID_REQUIRE(name != nullptr, "monitor violation with no check name");
  const auto pol = policy_for(name);
  if (!pol.has_value()) return obs::MonitorSet::ActuationDecision::Default;
  if (*pol == ResponsePolicy::Abort) return obs::MonitorSet::ActuationDecision::Abort;
  if (*pol == ResponsePolicy::Degrade || *pol == ResponsePolicy::Shed) act(now);
  ++stats_.suppressed_violations;
  return obs::MonitorSet::ActuationDecision::Suppress;
}

void DegradeController::record(Cycle now, const char* action, std::uint32_t lanes) {
  if (hub_ == nullptr) return;
  if (auto* fr = hub_->flight()) {
    obs::Args args;
    args.add("stage", std::string(stage_name(stage_)))
        .add("lanes", static_cast<std::uint64_t>(lanes));
    fr->record(now, std::string("resilience.") + action, args.str());
  }
}

void DegradeController::act(Cycle now) {
  if (acted_ && now - last_action_ < static_cast<Cycle>(cfg_.cooldown_cycles)) return;
  acted_ = true;
  last_action_ = now;
  streak_start_.reset();  // pressure while recovering voids the streak
  if (!episode_start_.has_value()) {
    episode_start_ = now;
    stats_.engaged = true;
  }
  ++stats_.steps_down;

  const bool shed_policy =
      cfg_.power_cap.has_value() && *cfg_.power_cap == ResponsePolicy::Shed;
  switch (stage_) {
    case Stage::Normal:
      enter_stage(Stage::CapMid, now, true);
      set_caps_all(PowerLevel::Mid, now);
      record(now, "step_down", 0);
      return;
    case Stage::CapMid:
      enter_stage(Stage::CapLow, now, true);
      set_caps_all(PowerLevel::Low, now);
      record(now, "step_down", 0);
      return;
    case Stage::CapLow:
      enter_stage(Stage::SleepIdle, now, true);
      record(now, "step_down", sleep_idle_lanes(now));
      return;
    case Stage::SleepIdle:
      if (shed_policy) {
        enter_stage(Stage::Shed, now, true);
        record(now, "step_down", shed_batch(now));
      } else {
        // The degrade policy never gives up lanes; re-sweep for lanes that
        // have gone idle since the last action.
        record(now, "step_down", sleep_idle_lanes(now));
      }
      return;
    case Stage::Shed:
      if (shed_total_ < shed_limit_) {
        record(now, "step_down", shed_batch(now));
      } else {
        // Pool-fraction ceiling reached: hold the floor, keep sweeping.
        record(now, "step_down", sleep_idle_lanes(now));
      }
      return;
  }
  ERAPID_UNREACHABLE("unmodeled ladder stage " << static_cast<int>(stage_));
}

void DegradeController::enter_stage(Stage next, Cycle now, bool down) {
  stage_ = next;
  if (down && static_cast<std::uint8_t>(next) >
                  static_cast<std::uint8_t>(stats_.peak_stage)) {
    stats_.peak_stage = next;
  }
  (void)now;
}

void DegradeController::on_power_sample(Cycle now, double mw) {
  ERAPID_REQUIRE(mw >= 0.0, "negative power sample: " << mw << " mW");
  if (stage_ == Stage::Normal) {
    streak_start_.reset();
    return;
  }
  if (cap_mw_ <= 0.0) return;
  if (mw > cap_mw_ * cfg_.recover_margin) {
    streak_start_.reset();
    return;
  }
  if (!streak_start_.has_value()) streak_start_ = now;
  if (now - *streak_start_ < static_cast<Cycle>(cfg_.recover_cycles)) return;
  if (now - last_action_ < static_cast<Cycle>(cfg_.cooldown_cycles)) return;
  step_up(now);
  streak_start_.reset();  // each rung up needs its own sustained streak
}

void DegradeController::step_up(Cycle now) {
  last_action_ = now;
  ++stats_.steps_up;
  switch (stage_) {
    case Stage::Shed:
      if (!shed_batches_.empty()) {
        record(now, "step_up", restore_batch(now));
        if (shed_batches_.empty()) enter_stage(Stage::SleepIdle, now, false);
      } else {
        enter_stage(Stage::SleepIdle, now, false);
        record(now, "step_up", 0);
      }
      return;
    case Stage::SleepIdle:
      // Slept lanes wake on demand (DLS); nothing to force here.
      enter_stage(Stage::CapLow, now, false);
      record(now, "step_up", 0);
      return;
    case Stage::CapLow:
      enter_stage(Stage::CapMid, now, false);
      set_caps_all(PowerLevel::Mid, now);
      record(now, "step_up", 0);
      return;
    case Stage::CapMid: {
      enter_stage(Stage::Normal, now, false);
      clear_caps_all();
      record(now, "step_up", 0);
      ++stats_.episodes;
      const CycleDelta dur = now - *episode_start_;
      stats_.time_degraded += dur;
      if (hub_ != nullptr) {
        hub_->metrics().observe(m_degraded_time_, static_cast<double>(dur));
      }
      episode_start_.reset();
      return;
    }
    case Stage::Normal:
      return;
  }
  ERAPID_UNREACHABLE("unmodeled ladder stage " << static_cast<int>(stage_));
}

void DegradeController::set_caps_all(PowerLevel cap, Cycle now) {
  const auto boards = lane_map_.boards();
  const auto wavelengths = lane_map_.wavelengths();
  for (std::uint32_t s = 0; s < boards; ++s) {
    optical::OpticalTerminal* term = terminals_[s];
    for (std::uint32_t d = 0; d < boards; ++d) {
      if (d == s) continue;
      for (std::uint32_t w = 0; w < wavelengths; ++w) {
        term->lane(BoardId{d}, WavelengthId{w}).set_brownout_cap(cap, now);
      }
    }
  }
}

void DegradeController::clear_caps_all() {
  const auto boards = lane_map_.boards();
  const auto wavelengths = lane_map_.wavelengths();
  for (std::uint32_t s = 0; s < boards; ++s) {
    optical::OpticalTerminal* term = terminals_[s];
    for (std::uint32_t d = 0; d < boards; ++d) {
      if (d == s) continue;
      for (std::uint32_t w = 0; w < wavelengths; ++w) {
        term->lane(BoardId{d}, WavelengthId{w}).clear_brownout_cap();
      }
    }
  }
}

std::uint32_t DegradeController::sleep_idle_lanes(Cycle now) {
  std::uint32_t slept = 0;
  const auto boards = lane_map_.boards();
  const auto wavelengths = lane_map_.wavelengths();
  for (std::uint32_t d = 0; d < boards; ++d) {
    for (std::uint32_t w = 0; w < wavelengths; ++w) {
      const BoardId dd{d};
      const WavelengthId ww{w};
      const BoardId owner = lane_map_.owner(dd, ww);
      if (!owner.valid()) continue;
      optical::OpticalTerminal* term = terminals_[owner.value()];
      const optical::Lane& ln = term->lane(dd, ww);
      if (!ln.enabled() || ln.level() == PowerLevel::Off) continue;
      if (ln.release_pending() || ln.transmitting(now)) continue;
      if (term->flow_queue_size(dd) != 0) continue;
      term->request_lane_level(dd, ww, PowerLevel::Off, now);
      ++slept;
    }
  }
  stats_.lanes_slept += slept;
  return slept;
}

std::uint32_t DegradeController::shed_batch(Cycle now) {
  std::uint32_t budget = cfg_.shed_step;
  if (shed_total_ + budget > shed_limit_) budget = shed_limit_ - shed_total_;
  if (budget == 0) return 0;
  std::vector<std::pair<BoardId, WavelengthId>> batch;
  const auto boards = lane_map_.boards();
  const auto wavelengths = lane_map_.wavelengths();
  // Free lanes first: withdrawing one costs no carried traffic at all.
  for (std::uint32_t d = 0; d < boards && batch.size() < budget; ++d) {
    for (std::uint32_t w = 0; w < wavelengths && batch.size() < budget; ++w) {
      const BoardId dd{d};
      const WavelengthId ww{w};
      if (lane_map_.is_failed(dd, ww) || lane_map_.is_shed(dd, ww)) continue;
      if (!lane_map_.is_free(dd, ww)) continue;
      lane_map_.shed(dd, ww);
      batch.emplace_back(dd, ww);
    }
  }
  // Then owned lanes — but never a flow's last lane (liveness) and never a
  // lane already carrying a deferred release (its on_dark chain holds a
  // reconfiguration re-grant this release would clobber).
  for (std::uint32_t d = 0; d < boards && batch.size() < budget; ++d) {
    for (std::uint32_t w = 0; w < wavelengths && batch.size() < budget; ++w) {
      const BoardId dd{d};
      const WavelengthId ww{w};
      if (lane_map_.is_failed(dd, ww) || lane_map_.is_shed(dd, ww)) continue;
      const BoardId owner = lane_map_.owner(dd, ww);
      if (!owner.valid()) continue;
      optical::OpticalTerminal* term = terminals_[owner.value()];
      optical::Lane& ln = term->lane(dd, ww);
      if (!ln.enabled() || ln.release_pending()) continue;
      if (lane_map_.lane_count(owner, dd) < 2) continue;
      // Shed before releasing so no bandwidth window between the two can
      // re-grant the lane.
      lane_map_.shed(dd, ww);
      topology::LaneMap* lm = &lane_map_;
      term->apply_release(dd, ww, now,
                          [lm, dd, ww](Cycle /*at*/) { lm->release(dd, ww); });
      batch.emplace_back(dd, ww);
    }
  }
  const auto n = static_cast<std::uint32_t>(batch.size());
  shed_total_ += n;
  stats_.lanes_shed += n;
  if (hub_ != nullptr) hub_->metrics().observe(m_shed_batch_, static_cast<double>(n));
  if (!batch.empty()) shed_batches_.push_back(std::move(batch));
  return n;
}

std::uint32_t DegradeController::restore_batch(Cycle /*now*/) {
  if (shed_batches_.empty()) return 0;
  std::vector<std::pair<BoardId, WavelengthId>> batch = std::move(shed_batches_.back());
  shed_batches_.pop_back();
  // LIFO within the batch too: strict reverse of the shed order.
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    lane_map_.unshed(it->first, it->second);
  }
  const auto n = static_cast<std::uint32_t>(batch.size());
  ERAPID_INVARIANT(shed_total_ >= n, "restored more lanes than were shed");
  shed_total_ -= n;
  stats_.lanes_restored += n;
  if (hub_ != nullptr) hub_->metrics().observe(m_restore_batch_, static_cast<double>(n));
  return n;
}

void DegradeController::finalize(Cycle now) {
  if (!episode_start_.has_value()) return;
  ERAPID_REQUIRE(now >= *episode_start_, "finalize before the open episode began");
  // The run ended degraded: the open episode still counts toward
  // time-in-degraded-state (but not toward completed episodes).
  const CycleDelta dur = now - *episode_start_;
  stats_.time_degraded += dur;
  if (hub_ != nullptr) {
    hub_->metrics().observe(m_degraded_time_, static_cast<double>(dur));
  }
  episode_start_.reset();
}

}  // namespace erapid::resilience
