#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "obs/probe.hpp"
#include "util/expect.hpp"

namespace erapid::fault {

namespace {

std::size_t stage_index(reconfig::CtrlStage s) {
  return s == reconfig::CtrlStage::PowerChain ? 0 : 1;
}

std::size_t target_index(CtrlTarget t) { return t == CtrlTarget::Chain ? 0 : 1; }

}  // namespace

FaultInjector::FaultInjector(des::Engine& engine, const topology::SystemConfig& cfg,
                             topology::LaneMap& lane_map,
                             reconfig::ReconfigManager& manager,
                             const std::vector<optical::OpticalTerminal*>& terminals,
                             const std::vector<optical::Receiver*>& receivers,
                             FaultPlan plan, obs::Hub* hub)
    : engine_(engine),
      cfg_(cfg),
      lane_map_(lane_map),
      manager_(manager),
      terminals_(terminals),
      receivers_(receivers),
      plan_(std::move(plan)),
      rng_(plan_.seed),
      hub_(hub) {
  ERAPID_EXPECT(terminals_.size() == cfg_.num_boards_total(),
                "one optical terminal per board required");
  ERAPID_EXPECT(receivers_.size() ==
                    static_cast<std::size_t>(cfg_.num_boards_total()) * cfg_.num_wavelengths(),
                "receiver array must cover every (board, wavelength)");
  plan_.validate(cfg_);
  drop_budget_[0].assign(terminals_.size(), 0);
  drop_budget_[1].assign(terminals_.size(), 0);
  if (hub_ != nullptr) {
    m_faults_ = hub_->metrics().counter("fault.injected");
    m_reroute_wait_ = hub_->metrics().series("fault.reroute_wait");
    // Recovery histograms exist only when a repair can actually happen —
    // keeps the metric namespace of repair-free plans (and all committed
    // fixtures) unchanged.
    const bool any_repair =
        std::any_of(plan_.events.begin(), plan_.events.end(), [](const FaultEvent& e) {
          return e.kind == FaultKind::LaneFail && e.repair_at != 0;
        });
    if (any_repair) {
      m_downtime_ = hub_->metrics().histogram("fault.lane_downtime");
      m_readmit_wait_ = hub_->metrics().histogram("fault.readmission_wait");
    }
  }
}

void FaultInjector::arm() {
  if (plan_.empty()) return;
  ERAPID_EXPECT(!armed_, "fault plan armed twice");
  armed_ = true;

  const bool any_ctrl =
      plan_.ctrl_drop_prob > 0.0 ||
      std::any_of(plan_.events.begin(), plan_.events.end(),
                  [](const FaultEvent& e) { return e.kind == FaultKind::CtrlDrop; });
  const bool any_lane_fail =
      std::any_of(plan_.events.begin(), plan_.events.end(),
                  [](const FaultEvent& e) { return e.kind == FaultKind::LaneFail; });

  if (any_ctrl) {
    manager_.set_ctrl_fault_hook([this](reconfig::CtrlStage s, BoardId b, std::uint32_t) {
      return ctrl_fault(s, b);
    });
  }
  if (any_lane_fail) {
    manager_.set_grant_observer([this](BoardId src, BoardId dest, WavelengthId w, Cycle at) {
      on_grant(src, dest, w, at);
    });
    manager_.set_window_observer([this](std::uint64_t, Cycle) {
      if (!pending_.empty()) ++stats_.degraded_windows;
    });
  }

  for (const auto& e : plan_.events) {
    ERAPID_EXPECT(e.at >= engine_.now(), "fault event scheduled in the past: " + e.format());
    engine_.schedule_at(e.at, [this, e] { inject(e); }, "fault.inject");
  }
}

void FaultInjector::inject(const FaultEvent& e) {
  const Cycle now = engine_.now();
  switch (e.kind) {
    case FaultKind::LaneFail:
      inject_lane_fail(e.dest, e.wavelength, now, e.repair_at);
      break;
    case FaultKind::LaserDegrade:
      inject_laser_degrade(e, now);
      break;
    case FaultKind::BitError:
      inject_bit_error(e, now);
      break;
    case FaultKind::CtrlDrop:
      drop_budget_[target_index(e.target)][e.board.value()] += e.count;
      break;
    case FaultKind::RcCrash:
      inject_rc_crash(e, now);
      break;
    default:
      ERAPID_UNREACHABLE("unmodeled fault kind " << static_cast<int>(e.kind));
  }
}

void FaultInjector::inject_lane_fail(BoardId dest, WavelengthId w, Cycle now,
                                     Cycle repair_at) {
  if (lane_map_.is_failed(dest, w)) return;  // double failure is idempotent
  const BoardId owner = lane_map_.owner(dest, w);
  lane_map_.mark_failed(dest, w);
  ++stats_.lanes_failed;
  stats_.first_failure = std::min(stats_.first_failure, now);
  ERAPID_COUNTER(hub_, m_faults_, 1);
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("dest", std::uint64_t{dest.value()})
        .add("wavelength", std::uint64_t{w.value()})
        .add("owner", owner.valid() ? std::uint64_t{owner.value()} : std::uint64_t{0});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.lane_fail", now, args.str());
    if (auto* fr = hub_->flight()) fr->record(now, "fault.lane_fail", args.str());
  }
  if (owner.valid()) {
    stats_.packets_rehomed += terminals_[owner.value()]->fail_lane(dest, w, now);
    pending_.push_back({owner, dest, now});
  }
  // Transient failure: schedule the repair. Only the event that actually
  // failed the lane repairs it — a later transient fault on an
  // already-dead lane (skipped above) must not resurrect a permanent one.
  if (repair_at != 0) {
    failed_.push_back({dest, w, owner, now});
    engine_.schedule_at(repair_at, [this, dest, w] {
      repair_lane(dest, w, engine_.now());
    }, "fault.repair");
  }
}

void FaultInjector::repair_lane(BoardId dest, WavelengthId w, Cycle now) {
  const auto it = std::find_if(failed_.begin(), failed_.end(), [&](const FailedLane& f) {
    return f.dest == dest && f.wavelength == w;
  });
  ERAPID_INVARIANT(it != failed_.end(), "repair fired for a lane with no failure record");
  lane_map_.repair(dest, w);
  // Only the owner-at-failure's Lane object was failed; other boards'
  // lanes for this ref were never touched.
  if (it->owner.valid()) terminals_[it->owner.value()]->repair_lane(dest, w, now);
  ++stats_.lanes_repaired;
  const CycleDelta downtime = now - it->failed_at;
  stats_.worst_downtime = std::max(stats_.worst_downtime, downtime);
  stats_.last_recovery = std::max(stats_.last_recovery, now);
  ERAPID_OBSERVE(hub_, m_downtime_, static_cast<double>(downtime));
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("dest", std::uint64_t{dest.value()})
        .add("wavelength", std::uint64_t{w.value()})
        .add("downtime", std::uint64_t{downtime});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.lane_repair", now, args.str());
  }
  readmit_.push_back({dest, w, it->failed_at, now});
  failed_.erase(it);
}

void FaultInjector::inject_laser_degrade(const FaultEvent& e, Cycle now) {
  // The fault is the owning transmitter's VCSEL losing drive margin; a dark
  // lane has no driving laser, so degrading it is a no-op.
  const BoardId owner = lane_map_.owner(e.dest, e.wavelength);
  if (!owner.valid()) return;
  auto* term = terminals_[owner.value()];
  term->cap_lane_level(e.dest, e.wavelength, e.cap, now);
  ++stats_.lanes_degraded;
  stats_.first_failure = std::min(stats_.first_failure, now);
  ERAPID_COUNTER(hub_, m_faults_, 1);
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("dest", std::uint64_t{e.dest.value()})
        .add("wavelength", std::uint64_t{e.wavelength.value()})
        .add("owner", std::uint64_t{owner.value()})
        .add("cap", std::uint64_t{static_cast<std::uint8_t>(e.cap)});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.laser_degrade", now, args.str());
    if (auto* fr = hub_->flight()) fr->record(now, "fault.laser_degrade", args.str());
  }
  if (e.duration > 0) {
    const BoardId dest = e.dest;
    const WavelengthId w = e.wavelength;
    engine_.schedule(e.duration, [this, ob = owner.value(), dest, w] {
      terminals_[ob]->clear_lane_level_cap(dest, w);
      if (hub_ != nullptr) {
        obs::Args args;
        args.add("dest", std::uint64_t{dest.value()})
            .add("wavelength", std::uint64_t{w.value()});
        ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.cap_clear", engine_.now(),
                             args.str());
      }
    }, "fault.cap_clear");
  }
}

void FaultInjector::inject_bit_error(const FaultEvent& e, Cycle now) {
  // Per-packet corruption probability from the per-bit BER: a packet is
  // dropped iff any of its bits flips (CRC catches everything, corrects
  // nothing).
  const double p_pkt =
      e.ber >= 1.0 ? 1.0
                   : 1.0 - std::pow(1.0 - e.ber, static_cast<double>(cfg_.packet_bits()));
  const Cycle until = e.duration > 0 ? now + e.duration : kNeverCycle;
  // Per-lane seed: deterministic, independent of every other lane's stream
  // and of event order.
  const std::uint64_t lane_key =
      static_cast<std::uint64_t>(e.dest.value()) * cfg_.num_wavelengths() +
      e.wavelength.value() + 1;
  const std::uint64_t seed = plan_.seed ^ (0x9E3779B97F4A7C15ULL * lane_key);
  receivers_[static_cast<std::size_t>(e.dest.value()) * cfg_.num_wavelengths() +
             e.wavelength.value()]
      ->set_bit_error(p_pkt, until, seed);
  stats_.first_failure = std::min(stats_.first_failure, now);
  ERAPID_COUNTER(hub_, m_faults_, 1);
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("dest", std::uint64_t{e.dest.value()})
        .add("wavelength", std::uint64_t{e.wavelength.value()})
        .add("duration", std::uint64_t{e.duration});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.bit_error", now, args.str());
  }
}

void FaultInjector::inject_rc_crash(const FaultEvent& e, Cycle now) {
  if (manager_.rc_dead(e.board)) return;  // double crash is idempotent
  manager_.crash_rc(e.board, now);
  stats_.first_failure = std::min(stats_.first_failure, now);
  ERAPID_COUNTER(hub_, m_faults_, 1);
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("board", std::uint64_t{e.board.value()});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.rc_crash", now, args.str());
  }
  if (e.repair_at != 0) {
    const BoardId b = e.board;
    engine_.schedule_at(e.repair_at, [this, b] {
      const Cycle t = engine_.now();
      manager_.repair_rc(b, t);
      stats_.last_recovery = std::max(stats_.last_recovery, t);
      if (hub_ != nullptr) {
        obs::Args args;
        args.add("board", std::uint64_t{b.value()});
        ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.rc_repair", t, args.str());
      }
    }, "fault.rc_repair");
  }
}

void FaultInjector::on_grant(BoardId src, BoardId dest, WavelengthId w, Cycle at) {
  // Any lane src gains toward dest re-homes the broken flow: the scheduler
  // spreads the queue over all owned lanes, so one replacement suffices.
  const auto it = std::find_if(pending_.begin(), pending_.end(), [&](const PendingReroute& p) {
    return p.src == src && p.dest == dest;
  });
  if (it != pending_.end()) {
    ++stats_.reroutes_completed;
    stats_.last_recovery = std::max(stats_.last_recovery, at);
    stats_.worst_time_to_reroute = std::max(stats_.worst_time_to_reroute, at - it->failed_at);
    ERAPID_OBSERVE(hub_, m_reroute_wait_, static_cast<double>(at - it->failed_at));
    if (hub_ != nullptr) {
      obs::Args args;
      args.add("src", std::uint64_t{src.value()})
          .add("dest", std::uint64_t{dest.value()})
          .add("wait", std::uint64_t{at - it->failed_at});
      ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.reroute_done", at, args.str());
    }
    pending_.erase(it);
  }

  // Re-admission: a repaired lane (dest, w) gaining an owner again means
  // DBR folded it back into the pool. The full outage (fail → re-grant)
  // feeds the recovery-time monitor.
  const auto rit = std::find_if(readmit_.begin(), readmit_.end(), [&](const Readmit& r) {
    return r.dest == dest && r.wavelength == w;
  });
  if (rit == readmit_.end()) return;
  ++stats_.readmissions_completed;
  stats_.last_recovery = std::max(stats_.last_recovery, at);
  const CycleDelta wait = at - rit->repaired_at;
  stats_.worst_readmission_wait = std::max(stats_.worst_readmission_wait, wait);
  ERAPID_OBSERVE(hub_, m_readmit_wait_, static_cast<double>(wait));
  if (hub_ != nullptr) {
    if (auto* mon = hub_->monitors()) mon->recovery(at, at - rit->failed_at);
    obs::Args args;
    args.add("dest", std::uint64_t{dest.value()})
        .add("wavelength", std::uint64_t{w.value()})
        .add("owner", std::uint64_t{src.value()})
        .add("wait", std::uint64_t{wait});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.readmitted", at, args.str());
  }
  readmit_.erase(rit);
}

bool FaultInjector::ctrl_fault(reconfig::CtrlStage stage, BoardId b) {
  auto& budget = drop_budget_[stage_index(stage)][b.value()];
  if (budget > 0) {
    --budget;
    return true;
  }
  return rng_.next_bernoulli(plan_.ctrl_drop_prob);
}

RecoveryStats FaultInjector::stats() const {
  RecoveryStats s = stats_;
  s.reroutes_pending = pending_.size();
  s.readmissions_pending = readmit_.size();
  for (const auto* t : terminals_) {
    s.crc_dropped += t->crc_naks();
    s.arq_retransmits += t->arq_retransmits();
    s.arq_dead_letters += t->arq_dead_letters();
  }
  return s;
}

}  // namespace erapid::fault
