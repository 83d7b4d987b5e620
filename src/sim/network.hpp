// Full E-RAPID system assembly.
//
// Instantiates and wires, for an R(C, B, D) configuration:
//   * one IBI router per board: D node input ports + W receiver input
//     ports; D ejection output ports + (B-1) remote output ports;
//   * W wavelength receivers per board feeding the router;
//   * one optical terminal per board (TX queues, lanes, scheduler);
//   * per-node NIs and ejection units;
//   * the global lane-ownership map and the LS reconfiguration manager;
//   * the board-indexed terminal and receiver pointer lists, built once
//     here and shared by every plane that acts on all boards (manager,
//     fault injector, degradation controller).
//
// Delivered packets are reported through a single callback the simulation
// driver installs (latency/throughput accounting lives there, keeping the
// network model measurement-free).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "optical/receiver.hpp"
#include "optical/terminal.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "reconfig/manager.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"
#include "sim/node_interface.hpp"
#include "topology/capacity.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid::sim {

/// A complete E-RAPID network instance.
class Network {
 public:
  /// `power_model` lets experiments substitute the per-level link
  /// electricals (e.g. an electrical-SerDes baseline or ablated transition
  /// latencies); the default is the paper's Table 1 optical model. `hub`
  /// (optional) is threaded to every instrumented component (manager,
  /// terminals, receivers, energy meter).
  Network(des::Engine& engine, const topology::SystemConfig& cfg,
          const reconfig::ReconfigConfig& rc_cfg,
          const power::LinkPowerModel& power_model = power::LinkPowerModel{},
          obs::Hub* hub = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `on_delivered(packet, now)` fires at every packet ejection.
  void set_delivery_callback(std::function<void(const router::Packet&, Cycle)> fn) {
    on_delivered_ = std::move(fn);
  }

  /// `on_dead_letter(packet, now)` fires when the link-level ARQ exhausts
  /// its retries on a packet — it will never be delivered. The simulation
  /// driver counts these so the drain loop can terminate.
  void set_dead_letter_callback(std::function<void(const router::Packet&, Cycle)> fn) {
    on_dead_letter_ = std::move(fn);
  }

  /// Lights static lanes and starts the reconfiguration windows.
  void start(Cycle now = 0);

  /// Injects a packet at its source node's NI.
  void inject(const router::Packet& p, Cycle now);

  // ---- accessors ----
  [[nodiscard]] const topology::SystemConfig& config() const { return cfg_; }
  [[nodiscard]] power::EnergyMeter& meter() { return meter_; }
  [[nodiscard]] const topology::Rwa& rwa() const { return rwa_; }
  [[nodiscard]] topology::LaneMap& lane_map() { return lane_map_; }
  [[nodiscard]] reconfig::ReconfigManager& reconfig_manager() { return *manager_; }
  [[nodiscard]] optical::OpticalTerminal& terminal(BoardId b) { return *terminals_[b.value()]; }
  [[nodiscard]] optical::Receiver& receiver(BoardId b, WavelengthId w) {
    return *receivers_[static_cast<std::size_t>(b.value()) * cfg_.num_wavelengths() + w.value()];
  }
  /// Every board's terminal, indexed by board id. The list lives as long
  /// as the network; consumers keep a reference to it.
  [[nodiscard]] const std::vector<optical::OpticalTerminal*>& terminals() const {
    return terminals_;
  }
  /// Every receiver, flat [board * W + wavelength]; same lifetime.
  [[nodiscard]] const std::vector<optical::Receiver*>& receivers() const {
    return receivers_;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }

  /// Total NI source-queue backlog (diagnostic; grows past saturation).
  [[nodiscard]] std::size_t total_source_backlog() const;

  /// Network-wide active energy (mW·cycles): lane power integrated only
  /// while serializing (the paper's utilization-weighted power metric).
  [[nodiscard]] units::MilliwattCycles active_energy_mw_cycles() const;

 private:
  void build_board(BoardId b);

  des::Engine& engine_;
  obs::Hub* hub_;
  topology::SystemConfig cfg_;
  des::ClockDomain domain_;
  power::LinkPowerModel power_model_;
  power::EnergyMeter meter_;
  topology::Rwa rwa_;
  topology::LaneMap lane_map_;

  std::vector<std::unique_ptr<router::Router>> routers_;
  std::vector<std::unique_ptr<optical::Receiver>> receiver_store_;  ///< [b*W + w]
  std::vector<std::unique_ptr<router::EjectionUnit>> ejections_;  ///< [node]
  std::vector<std::unique_ptr<optical::OpticalTerminal>> terminal_store_;
  std::vector<optical::Receiver*> receivers_;         ///< views of receiver_store_
  std::vector<optical::OpticalTerminal*> terminals_;  ///< views of terminal_store_
  std::vector<std::unique_ptr<NodeInterface>> nis_;
  std::unique_ptr<reconfig::ReconfigManager> manager_;

  std::function<void(const router::Packet&, Cycle)> on_delivered_;
  std::function<void(const router::Packet&, Cycle)> on_dead_letter_;
  std::uint64_t delivered_ = 0;
};

}  // namespace erapid::sim
