#include "optical/terminal.hpp"

#include <algorithm>

#include "obs/probe.hpp"

namespace erapid::optical {

using power::PowerLevel;

OpticalTerminal::OpticalTerminal(des::Engine& engine, const topology::SystemConfig& cfg,
                                 const power::LinkPowerModel& pw, power::EnergyMeter& meter,
                                 BoardId self, router::Router& router,
                                 const std::vector<Receiver*>& receivers, obs::Hub* hub)
    : engine_(engine), cfg_(cfg), pw_(pw), self_(self), router_(router), hub_(hub) {
  const std::uint32_t B = cfg.num_boards_total();
  const std::uint32_t W = cfg.num_wavelengths();
  ERAPID_EXPECT(receivers.size() == static_cast<std::size_t>(B) * W,
                "receiver array must cover every (board, wavelength)");

  flows_.reserve(B);
  for (std::uint32_t d = 0; d < B; ++d) flows_.emplace_back(cfg.tx_queue_packets, W);
  lane_scan_.reserve(W);

  lanes_.resize(static_cast<std::size_t>(B) * W);
  for (std::uint32_t d = 0; d < B; ++d) {
    if (d == self_.value()) continue;
    const BoardId dest{d};

    // One remote output port per destination board, sinking into TxSink.
    auto sink = std::make_unique<TxSink>(*this, dest, cfg.num_vcs);
    router::OutputPortConfig opc;
    opc.sink = sink.get();
    opc.vcs = cfg.num_vcs;
    opc.credits_per_vc = cfg.packet_flits;  // one packet in flight per VC
    opc.cycles_per_flit = cfg.tx_feed_cycles_per_flit;
    opc.wire_delay = 0;
    const std::uint32_t port = router_.add_output(opc);
    ERAPID_EXPECT(port == remote_out_port(dest),
                  "remote output ports must be added in increasing board order");
    sink->bind(port);
    flows_[d].sink = std::move(sink);

    // One lane per wavelength toward this destination.
    for (std::uint32_t w = 0; w < W; ++w) {
      Receiver* rx = receivers[static_cast<std::size_t>(d) * W + w];
      auto lane = std::make_unique<Lane>(engine_, cfg_, pw_, meter,
                                         topology::LaneRef{dest, WavelengthId{w}}, rx);
      lane->set_ready_callback([this, dest](Cycle now) { pump_flow(dest, now); });
      lanes_[lane_index(dest, WavelengthId{w})] = std::move(lane);
    }
  }
  if (hub_ != nullptr && hub_->enabled()) {
    m_lane_util_ = hub_->metrics().series("optical.lane_util");
    m_buffer_util_ = hub_->metrics().series("optical.buffer_util");
    m_tx_packets_ = hub_->metrics().counter("optical.tx_packets");
  }
}

std::uint64_t OpticalTerminal::lane_span_id(BoardId d, WavelengthId w) const {
  const std::uint64_t B = cfg_.num_boards_total();
  const std::uint64_t W = cfg_.num_wavelengths();
  return (self_.value() * B + d.value()) * W + w.value();
}

std::uint32_t OpticalTerminal::remote_out_port(BoardId d) const {
  ERAPID_EXPECT(d != self_, "no remote port to self");
  const std::uint32_t rel = d.value() < self_.value() ? d.value() : d.value() - 1;
  return cfg_.nodes_per_board + rel;
}

std::size_t OpticalTerminal::lane_index(BoardId d, WavelengthId w) const {
  ERAPID_REQUIRE(d.value() < cfg_.num_boards_total() && w.value() < cfg_.num_wavelengths(),
                 "lane reference out of range: d=" << d.value() << " w=" << w.value());
  ERAPID_REQUIRE(d != self_, "a board has no lanes to itself: d=" << d.value());
  return static_cast<std::size_t>(d.value()) * cfg_.num_wavelengths() + w.value();
}

// Thin wrapper: the real contracts live in lane_index() and Lane::enable.
// erapid-analyze: allow(contract-coverage)
void OpticalTerminal::apply_grant(BoardId d, WavelengthId w, PowerLevel level, Cycle now) {
  lanes_[lane_index(d, w)]->enable(now, level);
  // Grant→release lifecycle as an async span: ownerships of one coupler
  // wavelength overlap in time across boards, so the id keys each holder.
  if (hub_ != nullptr) {
    obs::Args args;
    args.add("owner", std::uint64_t{self_.value()})
        .add("dest", std::uint64_t{d.value()})
        .add("wavelength", std::uint64_t{w.value()});
    ERAPID_TRACE_ASYNC_BEGIN(hub_, hub_->track_lanes(), "lane.owned", lane_span_id(d, w),
                             now, args.str());
  }
}

// Thin wrapper: the real contracts live in lane_index() and Lane::disable.
// erapid-analyze: allow(contract-coverage)
void OpticalTerminal::apply_release(BoardId d, WavelengthId w, Cycle now,
                                    std::function<void(Cycle)> on_dark) {
  ERAPID_TRACE_ASYNC_END(hub_, hub_->track_lanes(), "lane.owned", lane_span_id(d, w), now);
  lanes_[lane_index(d, w)]->disable(now, std::move(on_dark));
}

void OpticalTerminal::request_lane_level(BoardId d, WavelengthId w, PowerLevel level,
                                         Cycle now) {
  lanes_[lane_index(d, w)]->request_level(level, now);
}

std::uint32_t OpticalTerminal::fail_lane(BoardId d, WavelengthId w, Cycle now) {
  Lane& ln = *lanes_[lane_index(d, w)];
  const auto aborted = ln.fail(now);
  if (!aborted) return 0;
  // Re-home the aborted packet at the head of its flow queue: it was
  // already committed to the optical domain, so it goes out first on the
  // next surviving lane. The deque may transiently exceed tx_queue_packets
  // by this one packet (Buffer_util can momentarily read above 1).
  auto& flow = flows_[d.value()];
  flow.q.push_front(*aborted);
  ERAPID_INVARIANT(flow.q.size() <= cfg_.tx_queue_packets + 1,
                   "re-homing overran the flow queue: " << flow.q.size() << " packets");
  flow.occ.set_occupancy(now, static_cast<std::uint32_t>(flow.q.size()));
  pump_flow(d, now);
  return 1;
}

void OpticalTerminal::repair_lane(BoardId d, WavelengthId w, Cycle now) {
  lanes_[lane_index(d, w)]->repair(now);
}

void OpticalTerminal::arq_nak(BoardId d, const router::Packet& p, Cycle now) {
  ERAPID_REQUIRE(d != self_, "ARQ NAK for a flow to self: d=" << d.value());
  ++crc_naks_;
  if (p.arq_retries >= cfg_.arq_retry_limit) {
    ++arq_dead_letters_;
    ERAPID_TRACE_INSTANT(hub_, hub_->track_fault(), "fault.arq_dead_letter", now, "");
    if (on_dead_letter_) on_dead_letter_(p, now);
    return;
  }
  router::Packet retry = p;
  ++retry.arq_retries;
  ++arq_retransmits_;
  // Exponential backoff: 1st retry waits one backoff unit, then doubling;
  // the shift is clamped so a pathological retry limit cannot overflow.
  const std::uint32_t shift = retry.arq_retries >= 17 ? 16 : retry.arq_retries - 1;
  const CycleDelta delay = static_cast<CycleDelta>(cfg_.arq_nak_cycles) +
                           (static_cast<CycleDelta>(cfg_.arq_backoff_cycles) << shift);
  engine_.schedule_at(now + delay, [this, d, retry] {
    // Head of the flow queue: like a re-homed packet, the retransmission
    // was already committed to the optical domain and goes out first. The
    // deque may transiently exceed tx_queue_packets by this one packet.
    const Cycle t = engine_.now();
    auto& flow = flows_[d.value()];
    flow.q.push_front(retry);
    flow.occ.set_occupancy(t, static_cast<std::uint32_t>(flow.q.size()));
    pump_flow(d, t);
  }, "optical.arq_retx");
}

void OpticalTerminal::cap_lane_level(BoardId d, WavelengthId w, power::PowerLevel cap,
                                     Cycle now) {
  lanes_[lane_index(d, w)]->set_level_cap(cap, now);
}

void OpticalTerminal::clear_lane_level_cap(BoardId d, WavelengthId w) {
  lanes_[lane_index(d, w)]->clear_level_cap();
}

void OpticalTerminal::enqueue_packet(BoardId d, const router::Packet& p, Cycle now) {
  auto& flow = flows_[d.value()];
  ERAPID_EXPECT(flow.q.size() < cfg_.tx_queue_packets, "transmit queue overflow");
  flow.q.push_back(p);
  ++flow.enqueued;
  ++enqueued_;
  flow.occ.set_occupancy(now, static_cast<std::uint32_t>(flow.q.size()));
  pump_flow(d, now);
}

void OpticalTerminal::pump_flow(BoardId d, Cycle now) {
  ERAPID_REQUIRE(d.value() < flows_.size() && d != self_,
                 "pump_flow on an invalid destination: d=" << d.value());
  auto& flow = flows_[d.value()];
  const std::uint32_t W = cfg_.num_wavelengths();
  const std::size_t base = lane_index(d, WavelengthId{0});
  auto lane_at = [&](std::uint32_t w) -> Lane* { return lanes_[base + w].get(); };

  while (!flow.q.empty()) {
    // Batched availability scan into the terminal-level scratch (see
    // lane_scan_ in the header for why sharing it is sound).
    std::vector<std::uint32_t>& usable = lane_scan_;
    usable.clear();
    for (std::uint32_t w = 0; w < W; ++w) {
      if (lane_at(w) && lane_at(w)->available(now)) usable.push_back(w);
    }
    if (usable.empty()) {
      // DLS wake-on-demand: queued packets but every owned lane is dark.
      // (If some lane is merely busy/paused, its ready callback re-pumps.)
      for (std::uint32_t w = 0; w < W; ++w) {
        if (lane_at(w) && lane_at(w)->can_wake()) {
          lane_at(w)->request_level(wake_level_, now);
          break;
        }
      }
      return;
    }
    // Round-robin across owned lanes; a lane may still refuse if its
    // wavelength receiver has no free RX slot — try the others.
    bool launched = false;
    while (!usable.empty()) {
      const std::uint32_t w = flow.lane_rr.grant(usable);
      if (lane_at(w)->try_transmit(flow.q.front(), now)) {
        launched = true;
        break;
      }
      usable.erase(std::find(usable.begin(), usable.end(), w));
    }
    if (!launched) return;  // all RX queues full; retried on slot-freed

    flow.q.pop_front();
    ++flow.launched;
    ERAPID_COUNTER(hub_, m_tx_packets_, 1);
    flow.occ.set_occupancy(now, static_cast<std::uint32_t>(flow.q.size()));
    if (flow.sink) flow.sink->retry_blocked(now);
  }
}

void OpticalTerminal::harvest(Cycle window_start, Cycle now, std::vector<LaneSnapshot>& lanes,
                              std::vector<FlowSnapshot>& flows) {
  ERAPID_REQUIRE(now >= window_start,
                 "harvest window ends before it starts: [" << window_start << ", " << now << ")");
  lanes.clear();
  flows.clear();
  const std::uint32_t B = cfg_.num_boards_total();
  const std::uint32_t W = cfg_.num_wavelengths();
  const CycleDelta window = now - window_start;
  for (std::uint32_t d = 0; d < B; ++d) {
    if (d == self_.value()) continue;
    const BoardId dest{d};
    std::uint32_t lit = 0;
    for (std::uint32_t w = 0; w < W; ++w) {
      Lane& ln = *lanes_[lane_index(dest, WavelengthId{w})];
      LaneSnapshot snap;
      snap.ref = ln.ref();
      snap.enabled = ln.enabled();
      snap.level = ln.level();
      snap.link_util = ln.busy_counter().utilization(window);
      ln.busy_counter().reset();
      if (snap.enabled) ERAPID_OBSERVE(hub_, m_lane_util_, snap.link_util);
      lanes.push_back(snap);
      if (ln.enabled()) ++lit;
    }
    FlowSnapshot fs;
    fs.dest = dest;
    fs.buffer_util = flows_[d].occ.utilization(window_start, now);
    ERAPID_OBSERVE(hub_, m_buffer_util_, fs.buffer_util);
    fs.queued = static_cast<std::uint32_t>(flows_[d].q.size());
    fs.lanes_enabled = lit;
    flows_[d].occ.harvest(now);
    flows.push_back(fs);
  }
}

units::MilliwattCycles OpticalTerminal::active_energy_mw_cycles() const {
  units::MilliwattCycles total{0.0};
  for (const auto& lane : lanes_) {
    if (lane) total += lane->active_energy_mw_cycles();
  }
  return total;
}

// ---- TxSink ----------------------------------------------------------

void OpticalTerminal::TxSink::receive_flit(const router::Flit& f, std::uint32_t vc,
                                           Cycle now) {
  ERAPID_EXPECT(f.index == expect_[vc], "flit order broken in TX reassembly");
  expect_[vc] = f.tail ? 0 : f.index + 1;
  assembly_[vc].push_back(f);
  if (f.tail) try_commit(vc, now);
}

void OpticalTerminal::TxSink::try_commit(std::uint32_t vc, Cycle now) {
  auto& buf = assembly_[vc];
  // Commit every complete packet parked at the front of the buffer; short
  // packets (under the credit window) can queue up behind a blocked one.
  while (!buf.empty()) {
    const std::uint32_t len = buf.front().packet_flits;
    if (buf.size() < len || !buf[len - 1].tail) return;  // partial tail packet
    auto& flow = t_.flows_[dest_.value()];
    if (flow.q.size() >= t_.cfg_.tx_queue_packets) {
      blocked_[vc] = true;  // retried when the queue drains
      return;
    }
    blocked_[vc] = false;
    const router::Packet p = router::packet_from_flit(buf[len - 1]);
    buf.erase(buf.begin(), buf.begin() + len);
    // Return the VC's credits now that the packet left the reassembly stage.
    for (std::uint32_t i = 0; i < len; ++i) t_.router_.return_credit(out_port_, vc);
    t_.enqueue_packet(dest_, p, now);
  }
}

void OpticalTerminal::TxSink::retry_blocked(Cycle now) {
  ERAPID_INVARIANT(blocked_.size() == assembly_.size(),
                   "per-VC blocked/assembly bookkeeping diverged");
  for (std::uint32_t vc = 0; vc < blocked_.size(); ++vc) {
    if (blocked_[vc]) try_commit(vc, now);
  }
}

}  // namespace erapid::optical
