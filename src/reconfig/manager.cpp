#include "reconfig/manager.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/probe.hpp"

namespace erapid::reconfig {

using power::PowerLevel;

ReconfigManager::ReconfigManager(des::Engine& engine, const topology::SystemConfig& cfg,
                                 const ReconfigConfig& rc_cfg, topology::LaneMap& lane_map,
                                 const std::vector<optical::OpticalTerminal*>& terminals,
                                 obs::Hub* hub)
    : engine_(engine),
      cfg_(cfg),
      cfg_rc_(rc_cfg),
      lane_map_(lane_map),
      terminals_(terminals),
      hub_(hub) {
  ERAPID_REQUIRE(terminals_.size() == cfg_.num_boards_total(),
                 "one optical terminal per board required: got " << terminals_.size()
                     << " terminals for " << cfg_.num_boards_total() << " boards");
  ERAPID_EXPECT(cfg_rc_.window > 0, "reconfiguration window must be positive");
  ERAPID_EXPECT(cfg_rc_.ring_hop_cycles > 0 && cfg_rc_.lc_hop_cycles > 0,
                "control-plane hops take >= 1 cycle: ring=" << cfg_rc_.ring_hop_cycles
                    << " lc=" << cfg_rc_.lc_hop_cycles);
  ERAPID_EXPECT(cfg_rc_.rc_watchdog_cycles > 0,
                "ring-token watchdog timeout must be >= 1 cycle");
  lane_stats_.resize(terminals_.size());
  flow_stats_.resize(terminals_.size());
  board_level_changes_.resize(terminals_.size(), 0);
  last_harvest_.resize(terminals_.size(), 0);
  rc_dead_.resize(terminals_.size(), 0);
  dpm_.reserve(terminals_.size());
  for (std::size_t b = 0; b < terminals_.size(); ++b) {
    dpm_.push_back(
        make_dpm_strategy(cfg_rc_.dpm_strategy, cfg_rc_.mode.dpm, cfg_rc_.dpm_params));
  }
  if (hub_ != nullptr) {
    m_windows_ = hub_->metrics().counter("reconfig.windows");
    m_lanes_moved_ = hub_->metrics().series("reconfig.dbr_lanes_moved");
    m_window_dpm_ = hub_->metrics().histogram("reconfig.window_duration.dpm");
    m_window_dbr_ = hub_->metrics().histogram("reconfig.window_duration.dbr");
    m_dbr_convergence_ = hub_->metrics().histogram("reconfig.dbr_convergence");
    m_ctrl_retries_ = hub_->metrics().histogram("reconfig.ctrl_retries");
  }
}

void ReconfigManager::initialize_static_lanes() {
  ERAPID_REQUIRE(!running_, "static lanes must be lit before the window timer starts");
  const Cycle now = engine_.now();
  const std::uint32_t B = cfg_.num_boards_total();
  const std::uint32_t W = cfg_.num_wavelengths();
  for (std::uint32_t d = 0; d < B; ++d) {
    for (std::uint32_t w = 0; w < W; ++w) {
      const BoardId owner = lane_map_.owner(BoardId{d}, WavelengthId{w});
      if (!owner.valid()) continue;
      terminals_[owner.value()]->apply_grant(BoardId{d}, WavelengthId{w},
                                             PowerLevel::High, now);
    }
  }
}

void ReconfigManager::start() {
  if (running_) return;
  running_ = true;
  std::fill(last_harvest_.begin(), last_harvest_.end(), engine_.now());
  next_window_ = engine_.schedule(
      cfg_rc_.window, [this] { on_window(); }, "reconfig.window");
  ERAPID_INVARIANT(next_window_.pending(), "window timer failed to arm");
}

void ReconfigManager::crash_rc(BoardId b, Cycle now) {
  ERAPID_EXPECT(b.value() < rc_dead_.size(), "rc_crash board out of range");
  ERAPID_EXPECT(rc_dead_[b.value()] == 0, "crashing an RC that is already dead");
  rc_dead_[b.value()] = 1;
  ++rc_dead_count_;
  // The crash may have swallowed the circulating ring token (we model the
  // worst case: it always does). The next bandwidth cycle's watchdog times
  // out and regenerates it.
  token_lost_ = true;
  ++counters_.rc_crashes;
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("board", std::uint64_t{b.value()});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_reconfig(), "rc.crash", now, args.str());
  }
}

void ReconfigManager::repair_rc(BoardId b, Cycle now) {
  ERAPID_EXPECT(b.value() < rc_dead_.size(), "rc_crash board out of range");
  ERAPID_EXPECT(rc_dead_[b.value()] != 0, "repairing an RC that is alive");
  rc_dead_[b.value()] = 0;
  --rc_dead_count_;
  ++counters_.rc_repairs;
  // Flush the counters that accumulated across the outage (the data plane
  // kept transmitting on the frozen lanes) so the board rejoins the next
  // window with stats spanning exactly one interval, not the whole outage.
  terminals_[b.value()]->harvest(last_harvest_[b.value()], now, lane_stats_[b.value()],
                                 flow_stats_[b.value()]);
  last_harvest_[b.value()] = now;
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("board", std::uint64_t{b.value()});
    ERAPID_TRACE_INSTANT(hub_, hub_->track_reconfig(), "rc.repair", now, args.str());
  }
}

void ReconfigManager::stop() {
  running_ = false;
  next_window_.cancel();
  ERAPID_INVARIANT(!next_window_.pending(), "window timer still armed after stop");
}

void ReconfigManager::on_window() {
  if (!running_) return;
  ++window_index_;
  const Cycle t = engine_.now();

  if (window_observer_) window_observer_(window_index_, t);

  const bool both = cfg_rc_.mode.power_aware && cfg_rc_.mode.bandwidth_reconfig;
  bool do_power = cfg_rc_.mode.power_aware;
  bool do_bandwidth = cfg_rc_.mode.bandwidth_reconfig;
  if (both) {
    // Paper §3.2: odd windows run the power-awareness cycle, even windows
    // the bandwidth re-allocation cycle.
    do_power = (window_index_ % 2 == 1);
    do_bandwidth = !do_power;
  }

  // The Lock-Step window as a trace span: the R_w parity (DPM on odd, DBR
  // on even) is directly visible on the reconfig track.
  ERAPID_COUNTER(hub_, m_windows_, 1);
  if (hub_ != nullptr) {
    const char* kind = do_power ? "window.dpm" : (do_bandwidth ? "window.dbr" : "window.idle");
    obs::Args args;
    args.add("index", window_index_).add("parity", std::uint64_t{window_index_ % 2});
    ERAPID_TRACE_SPAN(hub_, hub_->track_reconfig(), kind, t,
                      static_cast<CycleDelta>(cfg_rc_.window), args.str());
    // Black-box feed: windows are the reconfiguration heartbeat a
    // post-mortem wants to see leading up to a trigger.
    if (auto* fr = hub_->flight()) fr->record(t, kind, args.str());
  }

  // A window run with >= 1 dead RC is degraded: that board's lanes are
  // frozen at their last allocation for the duration.
  if (rc_dead_count_ > 0) ++counters_.frozen_windows;

  if (do_power || do_bandwidth) harvest_all(t);
  if (do_power) run_power_cycle(t);
  if (do_bandwidth) run_bandwidth_cycle(t);

  next_window_ = engine_.schedule(
      cfg_rc_.window, [this] { on_window(); }, "reconfig.window");
}

void ReconfigManager::harvest_all(Cycle now) {
  for (std::size_t b = 0; b < terminals_.size(); ++b) {
    if (rc_dead_[b]) continue;  // a dead RC scans nothing; counters keep accumulating
    terminals_[b]->harvest(last_harvest_[b], now, lane_stats_[b], flow_stats_[b]);
    last_harvest_[b] = now;
    ++counters_.chain_scans;
    counters_.ring_hops += cfg_.num_wavelengths() + 1;  // RC→LC_0→...→RC scan
  }
}

std::optional<std::uint32_t> ReconfigManager::ctrl_attempts(CtrlStage stage, BoardId b) {
  std::uint32_t attempt = 0;
  if (ctrl_fault_) {
    while (ctrl_fault_(stage, b, attempt)) {
      if (attempt >= cfg_rc_.ctrl_retry_limit) {
        // The loss that exhausts the budget abandons the board's directive
        // outright — accounted separately from the recovered drops.
        ++counters_.ctrl_exhausted_drops;
        ++counters_.ctrl_timeouts;
        // A timed-out board still transmitted the full retry budget.
        ERAPID_OBSERVE(hub_, m_ctrl_retries_, static_cast<double>(attempt + 1));
        return std::nullopt;  // board sits this window's cycle out
      }
      ++counters_.ctrl_drops;
      ++attempt;
      ++counters_.ctrl_retries;
    }
  }
  ERAPID_OBSERVE(hub_, m_ctrl_retries_, static_cast<double>(attempt));
  return attempt;
}

void ReconfigManager::run_power_cycle(Cycle t) {
  // Lock-Step window parity (§3.2): with both planes enabled, DPM owns the
  // odd windows; a power cycle on an even window means the alternation
  // logic regressed.
  ERAPID_INVARIANT(!(cfg_rc_.mode.power_aware && cfg_rc_.mode.bandwidth_reconfig) ||
                       window_index_ % 2 == 1,
                   "LS parity: power cycle on even window " << window_index_);
  ++counters_.power_cycles;
  // Power_Request circulates the on-board LC chain; every LC then decides
  // locally. All boards run concurrently (lock-step), so decisions land
  // after one full chain traversal. A board whose chain packet is lost
  // times out and retransmits (each retry re-walks the chain); after
  // ctrl_retry_limit losses it keeps last window's levels.
  const CycleDelta chain =
      static_cast<CycleDelta>(cfg_.num_wavelengths() + 1) * cfg_rc_.lc_hop_cycles;
  // Window occupancy: lock-step means the cycle ends when the slowest
  // board's decisions land — one clean chain traversal at minimum, more
  // when a board had to retransmit.
  CycleDelta occupancy = chain;

  for (std::size_t b = 0; b < terminals_.size(); ++b) {
    if (rc_dead_[b]) continue;  // dead RC: no Power_Request, levels frozen
    const auto attempts = ctrl_attempts(CtrlStage::PowerChain, BoardId{static_cast<std::uint32_t>(b)});
    if (!attempts) continue;
    const Cycle apply_at = t + static_cast<CycleDelta>(1 + *attempts) * chain;
    occupancy = std::max(occupancy, static_cast<CycleDelta>(1 + *attempts) * chain);
    // Index flow stats by destination board for the buffer-utilization input.
    const auto& flows = flow_stats_[b];
    std::uint64_t changes_before = board_level_changes_[b];
    for (const auto& lane : lane_stats_[b]) {
      if (!lane.enabled) continue;
      const auto fit = std::find_if(flows.begin(), flows.end(), [&](const auto& f) {
        return f.dest == lane.ref.dest;
      });
      ERAPID_EXPECT(fit != flows.end(), "flow stats missing for a lit lane");
      LaneObservation obs;
      obs.lane = lane.ref;
      obs.level = lane.level;
      obs.link_util = lane.link_util;
      obs.buffer_util = fit->buffer_util;
      obs.queue_empty = fit->queued == 0;
      const auto decision = dpm_[b]->decide(obs);
      if (!decision) continue;
      // Shutdown is safe for any strategy: the observation shows an idle
      // window and an empty queue, and DLS wake-on-demand recovers if
      // traffic returns.
      ++counters_.level_changes;
      ++board_level_changes_[b];
      auto* term = terminals_[b];
      const auto ref = lane.ref;
      const PowerLevel target = *decision;
      engine_.schedule_at(apply_at, [term, ref, target, this] {
        // The decision lands (1+attempts)·chain after the harvest. In
        // between, the previous bandwidth cycle's Link Response can release
        // the lane (or a fault can kill it): the decision is stale.
        if (!term->lane(ref.dest, ref.wavelength).enabled()) {
          ++counters_.stale_directives;
          return;
        }
        term->request_lane_level(ref.dest, ref.wavelength, target, engine_.now());
      }, "reconfig.dpm_apply");
    }
    // One counter track per LC chain (board): cumulative DVS transitions,
    // sampled only on windows where this board's levels actually moved.
    if (hub_ != nullptr && board_level_changes_[b] != changes_before) {
      const std::string track = "dpm.level_changes.b" + std::to_string(b);
      ERAPID_TRACE_COUNTER(hub_, hub_->track_counters(), track.c_str(), t,
                           static_cast<double>(board_level_changes_[b]));
    }
  }
  ERAPID_OBSERVE(hub_, m_window_dpm_, static_cast<double>(occupancy));
}

void ReconfigManager::run_bandwidth_cycle(Cycle t) {
  // Lock-Step window parity (§3.2): DBR owns the even windows (see
  // run_power_cycle).
  ERAPID_INVARIANT(!(cfg_rc_.mode.power_aware && cfg_rc_.mode.bandwidth_reconfig) ||
                       window_index_ % 2 == 0,
                   "LS parity: bandwidth cycle on odd window " << window_index_);
  ++counters_.bandwidth_cycles;
  const std::uint32_t B = cfg_.num_boards_total();
  const std::uint32_t W = cfg_.num_wavelengths();
  const CycleDelta chain = static_cast<CycleDelta>(W + 1) * cfg_rc_.lc_hop_cycles;
  const CycleDelta ring = static_cast<CycleDelta>(B) * cfg_rc_.ring_hop_cycles;

  // Fault model: each RC's ring circulation (its Board Request out and the
  // matching Board Response back) can be lost. Lock-step means a
  // retransmission stalls the *stage* for everyone by one extra ring
  // rotation; a board that exhausts its retries is simply absent from this
  // window — its stats are missing (no lane granted to it, none harvested
  // from it) and its own coupler keeps last window's allocation.
  // Dead RCs are bypassed: the ring skips them (no Board Request from
  // them, no directives for their couplers) and their lanes stay frozen at
  // the last allocation.
  std::vector<char> lost(B, 0);
  std::uint32_t alive = 0;
  for (std::uint32_t b = 0; b < B; ++b) {
    if (rc_dead_[b]) {
      lost[b] = 1;
    } else {
      ++alive;
    }
  }
  CycleDelta extra_rounds = 0;
  std::uint64_t ring_retries = 0;
  if (ctrl_fault_) {
    for (std::uint32_t b = 0; b < B; ++b) {
      if (lost[b]) continue;  // a dead RC transmits nothing
      const auto attempts = ctrl_attempts(CtrlStage::BandwidthRing, BoardId{b});
      if (!attempts) {
        lost[b] = 1;
      } else {
        extra_rounds = std::max<CycleDelta>(extra_rounds, *attempts);
        ring_retries += *attempts;
      }
    }
  }

  // Ring-token watchdog: an RC crash since the last bandwidth cycle may
  // have swallowed the circulating token. The protocol cannot deadlock on
  // it — the watchdog times out, the lowest-id surviving RC regenerates
  // the token deterministically, and the cycle proceeds after the timeout
  // plus one (re-)circulation to re-establish ring state.
  CycleDelta watchdog_delay = 0;
  if (token_lost_) {
    token_lost_ = false;
    watchdog_delay = cfg_rc_.rc_watchdog_cycles + ring;
    ++counters_.watchdog_fires;
    ++counters_.tokens_regenerated;
    counters_.ring_hops += alive;  // the regenerated token's recovery lap
    if (hub_ != nullptr) {
      obs::Args args;
      args.add("timeout", static_cast<std::uint64_t>(cfg_rc_.rc_watchdog_cycles));
      ERAPID_TRACE_INSTANT(hub_, hub_->track_reconfig(), "reconfig.watchdog", t, args.str());
    }
  }

  // Stage boundaries (lock-step; see file comment):
  //   Link Request completes at t + chain (outgoing stats at every RC),
  //   Board Request at + ring (incoming stats), Reconfigure takes 1 cycle,
  //   Board Response + ring, Link Response + chain => lasers switch.
  const Cycle t_reconf = t + watchdog_delay + chain + ring * (1 + extra_rounds) + 1;
  const Cycle t_apply = t_reconf + ring + chain;
  // DBR window occupancy: the full five-stage pipeline, retry-stretched
  // rings included (grants chained on lane darkness may settle later —
  // that tail is the convergence histogram's, not the window's).
  ERAPID_OBSERVE(hub_, m_window_dbr_, static_cast<double>(t_apply - t));

  // alive == B without crashes, so the no-fault tally is unchanged.
  counters_.ring_hops += 2ULL * alive * B;  // alive packets × B hops, two ring stages
  counters_.ring_hops += ring_retries * B;  // each retransmission re-circles

  engine_.schedule_at(t_reconf, [this, t_apply, lost = std::move(lost)] {
    const std::uint32_t nb = cfg_.num_boards_total();
    const std::uint32_t nw = cfg_.num_wavelengths();
    std::uint64_t lanes_moved = 0;
    std::uint64_t boards_lost = 0;
    for (std::uint32_t b = 0; b < nb; ++b) boards_lost += lost[b] ? 1 : 0;

    // Collect every destination's directives before scheduling any, so the
    // convergence tracker knows the re-solve's full fan-out up front. The
    // (dest, directive) order is the same as scheduling inline, so the
    // event stream is unchanged.
    std::vector<std::pair<BoardId, Directive>> decided;

    for (std::uint32_t d = 0; d < nb; ++d) {
      if (lost[d]) continue;  // RC_d never completed its circulation
      const BoardId dest{d};

      // Assemble RC_d's incoming-link table (what the Board Request stage
      // collected): one FlowStatsEntry per source board.
      std::vector<FlowStatsEntry> incoming;
      for (std::uint32_t s = 0; s < nb; ++s) {
        if (s == d) continue;
        if (lost[s]) continue;  // s's entry was in the lost circulation
        const auto& flows = flow_stats_[s];
        const auto fit = std::find_if(flows.begin(), flows.end(), [&](const auto& f) {
          return f.dest == dest;
        });
        ERAPID_EXPECT(fit != flows.end(), "flow stats missing in Board Request");
        FlowStatsEntry e;
        e.src = BoardId{s};
        e.buffer_util = fit->buffer_util;
        e.queued = fit->queued;
        e.lanes = fit->lanes_enabled;
        incoming.push_back(e);
      }

      // Current ownership of dest's coupler wavelengths. Failed lanes are
      // excluded: the allocation is re-solved around them, so a dead lane
      // can neither be harvested nor granted. Shed lanes (degradation
      // controller brownout) are excluded the same way until unshed.
      std::vector<LaneOwnership> lanes;
      for (std::uint32_t w = 0; w < nw; ++w) {
        if (lane_map_.is_failed(dest, WavelengthId{w})) continue;
        if (lane_map_.is_shed(dest, WavelengthId{w})) continue;
        const BoardId own = lane_map_.owner(dest, WavelengthId{w});
        // A dead RC's lanes are frozen at the last allocation: the
        // re-solve neither releases nor re-grants them.
        if (own.valid() && rc_dead_[own.value()]) continue;
        lanes.push_back({WavelengthId{w}, own});
      }

      const auto directives =
          allocate_lanes(dest, incoming, lanes, cfg_rc_.mode.dbr, cfg_rc_.grant_level);

      lanes_moved += directives.size();
      for (const auto& dir : directives) decided.emplace_back(dest, dir);
    }

    // Convergence tracking (obs only): a re-solve quiesces when its last
    // directive settles — a grant landing (possibly chained on lane
    // darkness past t_apply) or a stale drop. The engine's event stream is
    // identical with or without the tracker.
    std::function<void(Cycle)> settled;
    if (hub_ != nullptr && !decided.empty()) {
      struct ResolveTracker {
        Cycle resolve_at = 0;
        std::size_t outstanding = 0;
        Cycle last = 0;
      };
      auto tracker = std::make_shared<ResolveTracker>();
      tracker->resolve_at = engine_.now();
      tracker->outstanding = decided.size();
      if (auto* mon = hub_->monitors()) mon->dbr_resolve(tracker->resolve_at);
      settled = [this, tracker](Cycle at) {
        tracker->last = std::max(tracker->last, at);
        if (--tracker->outstanding == 0) {
          ERAPID_OBSERVE(hub_, m_dbr_convergence_,
                         static_cast<double>(tracker->last - tracker->resolve_at));
          if (auto* mon = hub_->monitors()) {
            mon->dbr_quiesced(tracker->resolve_at, tracker->last);
          }
        }
      };
    }

    for (const auto& [dest, dir] : decided) {
      engine_.schedule_at(t_apply, [this, dest = dest, dir = dir, settled] {
        apply_directive(dest, dir, engine_.now(), settled);
      }, "reconfig.dbr_apply");
    }

    // The Reconfigure stage's outcome as one instant mark: how many lanes
    // the global re-solve decided to move, and how many RCs sat it out.
    ERAPID_OBSERVE(hub_, m_lanes_moved_, static_cast<double>(lanes_moved));
    if (hub_ != nullptr) {
      obs::Args args;
      args.add("lanes_moved", lanes_moved).add("boards_lost", boards_lost);
      ERAPID_TRACE_INSTANT(hub_, hub_->track_reconfig(), "dbr.resolve",
                           engine_.now(), args.str());
    }
  }, "reconfig.dbr_resolve");
}

void ReconfigManager::apply_directive(BoardId dest, const Directive& dir, Cycle now,
                                      const std::function<void(Cycle)>& settled) {
  const WavelengthId w = dir.wavelength;
  // The directive is stale — drop it and let the next window re-solve —
  // when its lane changed between the Reconfigure stage and the Link
  // Response landing: the lane died (fault injection) or was shed
  // (degradation controller), or its ownership moved. Ownership moves
  // under a window shorter than the DBR pipeline (t_apply - t): the next
  // bandwidth cycle starts before this one's Link Response lands, so two
  // cycles' directives overlap, and the later one can find its lane
  // already handed over or still being released (the old owner's release
  // waits on an in-flight packet, and a second release would replace the
  // first one's chained re-grant).
  if (lane_map_.is_failed(dest, w) || lane_map_.is_shed(dest, w) ||
      lane_map_.owner(dest, w) != dir.old_owner ||
      (dir.old_owner.valid() &&
       terminals_[dir.old_owner.value()]->lane(dest, w).release_pending())) {
    ++counters_.stale_directives;
    if (settled) settled(now);
    return;
  }

  auto grant = [this, dest, w, dir, settled](Cycle at) {
    // The lane can fail or be shed while the old owner's in-flight packet
    // drains (apply_release chains the re-grant on lane darkness); a grant
    // must never land on a failed or withdrawn lane.
    if (lane_map_.is_failed(dest, w) || lane_map_.is_shed(dest, w)) {
      ++counters_.stale_directives;
      if (settled) settled(at);
      return;
    }
    lane_map_.grant(dest, w, dir.new_owner);
    terminals_[dir.new_owner.value()]->apply_grant(dest, w, dir.grant_level, at);
    ++counters_.lane_grants;
    if (hub_ != nullptr) {
      obs::Args args;
      args.add("owner", std::uint64_t{dir.new_owner.value()})
          .add("dest", std::uint64_t{dest.value()})
          .add("wavelength", std::uint64_t{w.value()});
      ERAPID_TRACE_INSTANT(hub_, hub_->track_lanes(), "lane.grant", at, args.str());
      if (auto* fr = hub_->flight()) fr->record(at, "lane.grant", args.str());
    }
    if (grant_observer_) grant_observer_(dir.new_owner, dest, w, at);
    if (settled) settled(at);
  };

  if (dir.old_owner.valid()) {
    ++counters_.lane_releases;
    if (hub_ != nullptr) {
      obs::Args args;
      args.add("owner", std::uint64_t{dir.old_owner.value()})
          .add("dest", std::uint64_t{dest.value()})
          .add("wavelength", std::uint64_t{w.value()});
      ERAPID_TRACE_INSTANT(hub_, hub_->track_lanes(), "lane.release", now, args.str());
    }
    terminals_[dir.old_owner.value()]->apply_release(
        dest, w, now, [this, dest, w, grant](Cycle at) {
          lane_map_.release(dest, w);
          grant(at);
        });
  } else {
    grant(now);
  }
}

}  // namespace erapid::reconfig
