// E-RAPID system configuration.
//
// A system is the 3-tuple R(C, B, D) of the paper: C clusters, B boards per
// cluster, D nodes per board. The evaluation uses one cluster, and so does
// this reproduction: C is fixed at 1 and the default is R(1, 8, 8) = 64
// nodes. All timing parameters below are the Table 1 / §4.1 values:
//
//   router clock          400 MHz (1 cycle = 2.5 ns)
//   electrical channel    16 bit  => 6.4 Gb/s unidirectional, 4 cycles/flit
//   flit                  64 bit; packet 64 B = 8 flits
//   optical bit rates     2.5 / 3.3 / 5 Gb/s  (P_low / P_mid / P_high)
//   RC, VA, SA            one router cycle each
//   credit delay          1 cycle
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/expect.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace erapid::topology {

/// Static description of an E-RAPID system plus microarchitecture timing.
struct SystemConfig {
  static constexpr std::uint32_t kMaxHandoffCycles = 64;  ///< see max_handoff_cycles()

  // ---- R(1, B, D) ----
  std::uint32_t boards = 8;           ///< B: boards in the cluster.
  std::uint32_t nodes_per_board = 8;  ///< D: nodes per board.

  // ---- electrical router (Table 1, SGI-Spider-derived) ----
  double router_clock_ghz = 0.4;        ///< 400 MHz router clock.
  std::uint32_t channel_width_bits = 16;  ///< electrical phit width.
  std::uint32_t flit_bits = 64;           ///< flit size (8 B).
  std::uint32_t packet_flits = 8;         ///< 64 B packet = 8 flits.
  std::uint32_t num_vcs = 4;              ///< virtual channels per input port.
  std::uint32_t vc_buffer_flits = 8;      ///< per-VC input buffer depth.
  std::uint32_t credit_delay = 1;         ///< credit return latency (cycles).

  // ---- optical layer ----
  std::uint32_t tx_queue_packets = 16;  ///< per-destination transmit queue.
  std::uint32_t rx_queue_packets = 8;   ///< per-wavelength receive queue.
  std::uint32_t fiber_delay_cycles = 8; ///< propagation (≈ 20 ns ≈ 4 m fiber).
  /// Router→transmitter feed pacing (cycles per flit). Figure 2(a) gives
  /// every optical transmitter its own electrical feed from the IBI switch
  /// ("spreading the traffic on the transmitter board", §2.2); since the
  /// terminal aggregates a board's W transmitter feeds behind one
  /// per-destination router port, that port's channel must represent their
  /// combined width — 1 cycle/flit (a conservative fraction of W × 16 bit).
  std::uint32_t tx_feed_cycles_per_flit = 1;

  // ---- link-level ARQ (CRC-detected corruption recovery) ----
  /// Retransmissions allowed per packet before it is dead-lettered.
  std::uint32_t arq_retry_limit = 4;
  /// Base backoff unit; retry k waits arq_nak_cycles + (backoff << (k-1)).
  std::uint32_t arq_backoff_cycles = 32;
  /// Fixed NAK round-trip latency before a retransmission is re-queued.
  std::uint32_t arq_nak_cycles = 8;

  // ------------------------------------------------------------------
  [[nodiscard]] std::uint32_t num_boards_total() const { return boards; }
  [[nodiscard]] std::uint32_t num_nodes() const { return num_boards_total() * nodes_per_board; }

  /// Wavelength count: one per board slot (λ_0 .. λ_{B-1}); λ_0 is the
  /// "self" wavelength, unused by the static RWA and grantable by DBR.
  [[nodiscard]] std::uint32_t num_wavelengths() const { return boards; }

  /// Cycle duration in wall-clock nanoseconds.
  [[nodiscard]] units::Nanoseconds cycle_ns() const {
    return units::Nanoseconds{1.0 / router_clock_ghz};
  }

  /// Electrical serialization: cycles to push one flit through a channel.
  [[nodiscard]] std::uint32_t cycles_per_flit_electrical() const {
    return (flit_bits + channel_width_bits - 1) / channel_width_bits;
  }

  /// Longest hand-off the routers post to their clock domain: a credit
  /// return or one flit crossing an electrical channel or transmitter feed.
  [[nodiscard]] std::uint32_t max_handoff_cycles() const {
    return std::max({credit_delay, cycles_per_flit_electrical(), tx_feed_cycles_per_flit});
  }

  /// Packet payload in bits.
  [[nodiscard]] std::uint32_t packet_bits() const { return packet_flits * flit_bits; }

  /// Optical serialization: cycles to transmit a whole packet at bit rate
  /// `br` (packets, not flits, traverse the optical domain).
  [[nodiscard]] CycleDelta serialization_cycles(units::GbitsPerSec br) const {
    ERAPID_EXPECT(br.value() > 0.0, "bit rate must be positive");
    // bits / (Gb/s) lands on ns exactly because 1 bit / (1e9 bit/s) = 1 ns.
    const units::Nanoseconds ns{static_cast<double>(packet_bits()) / br.value()};
    return static_cast<CycleDelta>(std::ceil(ns / cycle_ns()));
  }

  // ---- node <-> board maps ----
  [[nodiscard]] BoardId board_of(NodeId n) const { return BoardId{n.value() / nodes_per_board}; }
  [[nodiscard]] std::uint32_t local_index(NodeId n) const { return n.value() % nodes_per_board; }
  [[nodiscard]] NodeId node_at(BoardId b, std::uint32_t local) const {
    return NodeId{b.value() * nodes_per_board + local};
  }

  /// Validates structural requirements; throws ModelInvariantError.
  void validate() const {
    ERAPID_EXPECT(boards >= 2, "E-RAPID needs >= 2 boards for inter-board traffic");
    ERAPID_EXPECT(nodes_per_board >= 1, "need at least one node per board");
    ERAPID_EXPECT(channel_width_bits >= 1, "electrical channel needs at least one bit");
    ERAPID_EXPECT(flit_bits >= 8 && flit_bits % 8 == 0,
                  "flit must be a positive whole number of bytes, got " << flit_bits
                                                                          << " bits");
    ERAPID_EXPECT(flit_bits % channel_width_bits == 0,
                  "flit must be a whole number of electrical phits");
    ERAPID_EXPECT(num_vcs >= 1 && vc_buffer_flits >= 1, "router needs buffers");
    // A router port tracks its busy VCs in one 64-bit mask.
    ERAPID_EXPECT(num_vcs <= 64, "system.num_vcs must be in 1..64, got " << num_vcs);
    ERAPID_EXPECT(packet_flits >= 1, "packet needs at least one flit");
    ERAPID_EXPECT(tx_queue_packets >= 1, "transmit queue needs room for one packet");
    // The hand-offs ride the clock domain's ring, which spans
    // max_handoff_cycles(). A same-cycle credit (delay 0) would have to run
    // after the tick that freed it, which a ring of later cycles cannot do.
    ERAPID_EXPECT(credit_delay >= 1 && tx_feed_cycles_per_flit >= 1 &&
                      max_handoff_cycles() <= kMaxHandoffCycles,
                  "system.credit_delay (" << credit_delay << "), flit_bits / channel_width_bits ("
                      << cycles_per_flit_electrical() << ") and tx_feed_cycles_per_flit ("
                      << tx_feed_cycles_per_flit << ") must each be in 1.."
                      << kMaxHandoffCycles << " cycles");
    ERAPID_EXPECT(arq_retry_limit >= 1, "ARQ needs at least one retry before dead-letter");
  }

  [[nodiscard]] std::string describe() const {
    return "R(1," + std::to_string(boards) + "," + std::to_string(nodes_per_board) + "), " +
           std::to_string(num_nodes()) + " nodes";
  }
};

}  // namespace erapid::topology
