// Paced flit injector — the send side of a network interface.
//
// Converts whole packets into a flit stream across a serial electrical
// channel (cycles_per_flit pacing) into one router input port, obeying the
// router's per-VC input-buffer credits. Used both by node NIs (traffic
// generator -> IBI) and by optical receive units (RX queue -> IBI).
//
// Each flit is posted to the router's clock domain (ClockDomain::post) for
// the cycle it has crossed the channel: no calendar event per flit, and no
// cost when idle. One packet in flight at a time (the channel is serial;
// interleaving packets across VCs from one port would not add bandwidth).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "router/flit.hpp"
#include "router/router.hpp"

namespace erapid::router {

/// Streams packets flit-by-flit into a router input port.
class FlitInjector {
 public:
  /// Registers itself as the credit sink of `in_port`. `credits_per_vc`
  /// must equal the router's input VC buffer depth; `cycles_per_flit` must
  /// be in 1..router.domain().max_delay(). `engine` is not kept.
  FlitInjector(des::Engine& engine, Router& router, std::uint32_t in_port,
               std::uint32_t vcs, std::uint32_t credits_per_vc,
               std::uint32_t cycles_per_flit);

  FlitInjector(const FlitInjector&) = delete;
  FlitInjector& operator=(const FlitInjector&) = delete;

  /// True while a packet is being streamed.
  [[nodiscard]] bool busy() const { return in_flight_; }

  /// Starts streaming `p` if idle; returns false only when busy. With no
  /// credits available the packet is committed to a VC and the stream
  /// stalls until the router returns a credit. `now` is the current cycle.
  bool try_start(const Packet& p, Cycle now);

  /// Invoked when the current packet's tail flit has been handed to the
  /// router (the injector is ready for the next packet).
  void set_idle_callback(std::function<void(Cycle)> fn) { on_idle_ = std::move(fn); }

  [[nodiscard]] std::uint32_t credits(std::uint32_t vc) const { return credits_[vc]; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void schedule_send(Cycle when);
  void send_next(Cycle now);
  void on_credit(std::uint32_t vc, Cycle now);

  Router& router_;
  std::uint32_t in_port_;
  std::uint32_t cycles_per_flit_;
  std::vector<std::uint32_t> credits_;
  RoundRobinArbiter vc_pick_;
  std::vector<std::uint32_t> vc_scan_;  ///< try_start's VC request list, reused

  bool in_flight_ = false;
  bool stalled_ = false;       ///< mid-packet, waiting for a credit
  bool send_scheduled_ = false;
  Packet current_{};
  std::uint32_t next_flit_ = 0;
  std::uint32_t vc_ = 0;
  std::function<void(Cycle)> on_idle_;
  std::uint64_t packets_sent_ = 0;
};

/// Reassembles flits arriving at a router output into packets and hands
/// them to a callback — the receive side of a node NI (ejection port).
/// Credits are returned as flits arrive (the node always drains).
class EjectionUnit : public FlitReceiver {
 public:
  /// `on_packet(packet, now)` fires when a tail flit completes a packet.
  EjectionUnit(Router& router, std::uint32_t vcs,
               std::function<void(const Packet&, Cycle)> on_packet);

  /// Must be called with the output-port index this unit was attached to
  /// (known only after Router::add_output).
  void bind(std::uint32_t out_port) { out_port_ = out_port; }

  void receive_flit(const Flit& f, std::uint32_t vc, Cycle now) override;

  [[nodiscard]] std::uint64_t packets_ejected() const { return packets_; }

 private:
  Router& router_;
  std::uint32_t out_port_ = 0;
  std::vector<std::uint32_t> expected_index_;
  std::function<void(const Packet&, Cycle)> on_packet_;
  std::uint64_t packets_ = 0;
};

}  // namespace erapid::router
