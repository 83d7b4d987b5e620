#include "sim/network.hpp"

namespace erapid::sim {

Network::Network(des::Engine& engine, const topology::SystemConfig& cfg,
                 const reconfig::ReconfigConfig& rc_cfg,
                 const power::LinkPowerModel& power_model, obs::Hub* hub)
    : engine_(engine),
      hub_(hub),
      cfg_((cfg.validate(), cfg)),  // validated before the domain sizes its ring
      domain_(engine, cfg_.max_handoff_cycles()),
      power_model_(power_model),
      meter_(cfg.num_boards_total()),
      rwa_(cfg.num_boards_total()),
      lane_map_(cfg, rwa_) {
  const std::uint32_t B = cfg_.num_boards_total();
  const std::uint32_t W = cfg_.num_wavelengths();

  routers_.resize(B);
  receiver_store_.resize(static_cast<std::size_t>(B) * W);
  ejections_.resize(cfg_.num_nodes());
  terminal_store_.resize(B);
  nis_.resize(cfg_.num_nodes());

  // Phase 1: routers, ejection outputs, receivers (per board, in order).
  for (std::uint32_t b = 0; b < B; ++b) build_board(BoardId{b});

  // Phase 2: terminals (need every board's receivers) and NIs.
  receivers_.reserve(receiver_store_.size());
  for (const auto& r : receiver_store_) receivers_.push_back(r.get());
  meter_.attach_hub(hub_);
  terminals_.reserve(B);
  for (std::uint32_t b = 0; b < B; ++b) {
    terminal_store_[b] = std::make_unique<optical::OpticalTerminal>(
        engine_, cfg_, power_model_, meter_, BoardId{b}, *routers_[b], receivers_, hub_);
    terminals_.push_back(terminal_store_[b].get());
  }

  // Receiver slot-freed events go to whichever board currently owns the
  // lane, so a transmission blocked on RX backpressure resumes promptly.
  // CRC drops route back to the *source board of the packet* (not the lane
  // owner — DBR may have moved the lane since launch): its terminal runs
  // the link-level ARQ retransmission.
  for (std::uint32_t d = 0; d < B; ++d) {
    for (std::uint32_t w = 0; w < W; ++w) {
      auto& rx = receiver(BoardId{d}, WavelengthId{w});
      rx.set_slot_freed_callback([this, d, w](Cycle now) {
        const BoardId owner = lane_map_.owner(BoardId{d}, WavelengthId{w});
        if (owner.valid()) terminals_[owner.value()]->pump_flow(BoardId{d}, now);
      });
      rx.set_crc_drop_callback([this, d](const router::Packet& p, Cycle now) {
        terminals_[cfg_.board_of(p.src).value()]->arq_nak(BoardId{d}, p, now);
      });
    }
  }
  for (optical::OpticalTerminal* t : terminals_) {
    t->set_dead_letter_callback([this](const router::Packet& p, Cycle now) {
      if (on_dead_letter_) on_dead_letter_(p, now);
    });
  }

  for (std::uint32_t n = 0; n < cfg_.num_nodes(); ++n) {
    const NodeId node{n};
    const BoardId b = cfg_.board_of(node);
    nis_[n] = std::make_unique<NodeInterface>(
        engine_, *routers_[b.value()], cfg_.local_index(node), cfg_.num_vcs,
        cfg_.vc_buffer_flits, cfg_.cycles_per_flit_electrical());
  }

  manager_ = std::make_unique<reconfig::ReconfigManager>(engine_, cfg_, rc_cfg, lane_map_,
                                                         terminals_, hub_);
}

void Network::build_board(BoardId b) {
  const std::uint32_t D = cfg_.nodes_per_board;
  const std::uint32_t W = cfg_.num_wavelengths();

  // Routing: local destinations eject at their node port; remote boards
  // use the terminal's per-destination output (D + relative index).
  auto route = [this, b, D](const router::Flit& head) -> std::uint32_t {
    const BoardId dest_board = cfg_.board_of(head.dst);
    if (dest_board == b) return cfg_.local_index(head.dst);
    const std::uint32_t rel =
        dest_board.value() < b.value() ? dest_board.value() : dest_board.value() - 1;
    return D + rel;
  };

  routers_[b.value()] = std::make_unique<router::Router>(
      engine_, domain_, "board" + std::to_string(b.value()), D + W, cfg_.num_vcs,
      cfg_.vc_buffer_flits, cfg_.credit_delay, route);
  auto& rt = *routers_[b.value()];

  // Ejection output ports 0..D-1 (must precede the terminal's remote ports).
  for (std::uint32_t i = 0; i < D; ++i) {
    const NodeId node = cfg_.node_at(b, i);
    auto ej = std::make_unique<router::EjectionUnit>(
        rt, cfg_.num_vcs, [this](const router::Packet& p, Cycle now) {
          ++delivered_;
          if (on_delivered_) on_delivered_(p, now);
        });
    router::OutputPortConfig opc;
    opc.sink = ej.get();
    opc.vcs = cfg_.num_vcs;
    opc.credits_per_vc = cfg_.vc_buffer_flits;
    opc.cycles_per_flit = cfg_.cycles_per_flit_electrical();
    opc.wire_delay = 0;
    const std::uint32_t port = rt.add_output(opc);
    ERAPID_EXPECT(port == i, "ejection ports must be 0..D-1");
    ej->bind(port);
    ejections_[node.value()] = std::move(ej);
  }

  // Wavelength receivers feeding router input ports D..D+W-1.
  for (std::uint32_t w = 0; w < W; ++w) {
    receiver_store_[static_cast<std::size_t>(b.value()) * W + w] =
        std::make_unique<optical::Receiver>(engine_, rt, D + w, cfg_.num_vcs,
                                            cfg_.vc_buffer_flits,
                                            cfg_.cycles_per_flit_electrical(),
                                            cfg_.rx_queue_packets, hub_);
  }
}

void Network::start(Cycle /*now*/) {
  manager_->initialize_static_lanes();
  manager_->start();
}

void Network::inject(const router::Packet& p, Cycle now) {
  // The TX reassembly credit window holds exactly cfg.packet_flits flits
  // per VC, so a longer packet could never finish crossing the router.
  ERAPID_EXPECT(p.flits >= 1 && p.flits <= cfg_.packet_flits,
                "packet of " << p.flits << " flits exceeds the system packet length ("
                             << cfg_.packet_flits << ")");
  nis_[p.src.value()]->submit(p, now);
}

std::size_t Network::total_source_backlog() const {
  std::size_t total = 0;
  for (const auto& ni : nis_) total += ni->queue_size();
  return total;
}

units::MilliwattCycles Network::active_energy_mw_cycles() const {
  units::MilliwattCycles total{0.0};
  for (const optical::OpticalTerminal* t : terminals_) total += t->active_energy_mw_cycles();
  return total;
}

}  // namespace erapid::sim
