// Cycle-accurate virtual-channel wormhole router — the Intra-Board
// Interconnect (IBI) of paper §2.1 / Figure 2(a).
//
// Microarchitecture (Table 1, SGI-Spider-derived):
//   * per-input-port virtual channels with private flit buffers;
//   * credit-based flow control on both sides (1-cycle credit delay);
//   * per-packet stages: route computation (RC), VC allocation (VA);
//   * per-flit stages: switch allocation (SA), switch traversal (ST);
//     each stage costs one router cycle;
//   * separable allocators built from round-robin arbiters: VA arbitrates
//     input VCs per free output VC; SA is input-first (one candidate VC per
//     input port) then output-first (one input per output port);
//   * output channels serialize flits at a configurable rate (16-bit phits
//     at 400 MHz => 4 cycles per 64-bit flit).
//
// Timing discipline: every stage transition is gated on `now >
// state_since`, so a flit observes at least one cycle per stage. Flits and
// credits arrive through ClockDomain::post at the start of their cycle's
// tick, so the result is independent of same-cycle event ordering.
//
// Cost discipline: a tick allocates nothing (request lists live in reused
// scratch) and walks only live state. An Idle VC always has an empty
// buffer, so the non-Idle VCs are the whole of the router's pending work.
// Each input port keeps a one-word mask of its non-Idle VCs (hence at most
// 64 VCs per port), and the router keeps a bitset of the ports whose mask
// is non-zero: a router with an empty port set is quiescent and returns
// after one branch, and a busy tick visits only the live ports and, within
// each, only the live VCs. Bits are walked in ascending order, so request
// lists come out ascending exactly as a full scan would build them; a port
// or VC that is Idle would make no request, nominate nothing and leave its
// arbiter alone, so skipping it changes nothing but the cost. VA and SA
// then visit only the outputs that received a request this tick, again
// in ascending order.
//
// Each input VC buffers its flits in a fixed ring of vc_depth slots
// (credits bound its occupancy), and all of a router's rings share one
// vector allocated in the ctor, so moving a flit through a VC touches no
// allocator and no node map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "router/arbiter.hpp"
#include "router/flit.hpp"
#include "util/expect.hpp"

namespace erapid::router {

/// Downstream endpoint of a router output port.
class FlitReceiver {
 public:
  virtual ~FlitReceiver() = default;

  /// Called when a flit has fully traversed the output channel. `out_vc`
  /// is the downstream virtual channel VA assigned. The receiver owns a
  /// buffer of the credits it granted and must return credits via the
  /// CreditReturn handle it was constructed with.
  virtual void receive_flit(const Flit& f, std::uint32_t out_vc, Cycle now) = 0;
};

/// Configuration of one router output port.
struct OutputPortConfig {
  FlitReceiver* sink = nullptr;
  std::uint32_t vcs = 1;              ///< downstream virtual channels
  std::uint32_t credits_per_vc = 8;   ///< downstream buffer depth (flits)
  std::uint32_t cycles_per_flit = 4;  ///< channel serialization time
  std::uint32_t wire_delay = 0;       ///< extra propagation cycles
};

/// Routing function: maps a head flit to an output port index.
using RouteFn = std::function<std::uint32_t(const Flit&)>;

/// Upstream credit callback: (vc, now) for one freed input-buffer slot.
using CreditFn = std::function<void(std::uint32_t, Cycle)>;

/// Aggregate router activity counters (for tests and microbenchmarks).
struct RouterCounters {
  std::uint64_t flits_in = 0;
  std::uint64_t flits_out = 0;
  std::uint64_t packets_routed = 0;
  std::uint64_t va_grants = 0;
  std::uint64_t sa_grants = 0;
  std::uint64_t sa_conflicts = 0;  ///< SA requests denied per cycle
};

/// The VC wormhole router.
class Router : public des::Clocked {
 public:
  /// Most VCs an input port can have: a port's live-VC mask is one word.
  static constexpr std::uint32_t kMaxVcsPerInput = 64;

  /// Registers with `domain`, through which the router hands off every
  /// flit and credit (ClockDomain::post), so `credit_delay` and each
  /// output's cycles_per_flit + wire_delay must be in 1..domain.max_delay().
  /// `engine` is the engine the domain runs on; the router keeps no
  /// reference to it.
  Router(des::Engine& engine, des::ClockDomain& domain, std::string name,
         std::uint32_t num_inputs, std::uint32_t vcs_per_input,
         std::uint32_t vc_depth_flits, std::uint32_t credit_delay, RouteFn route);

  /// Adds an output port; returns its index. All outputs must be added
  /// before the first flit arrives (throws otherwise).
  std::uint32_t add_output(const OutputPortConfig& cfg);

  /// Registers the upstream credit sink for an input port.
  void set_credit_return(std::uint32_t in_port, CreditFn fn);

  // --- upstream-facing flit interface (upstream tracks its own credits) ---
  void accept_flit(std::uint32_t in_port, std::uint32_t vc, const Flit& f, Cycle now);

  /// Downstream calls this when it frees one flit slot on (out_port, vc).
  void return_credit(std::uint32_t out_port, std::uint32_t vc);

  // --- des::Clocked ---
  void tick(Cycle now) override;
  [[nodiscard]] bool quiescent() const override;

  [[nodiscard]] const RouterCounters& counters() const { return counters_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] des::ClockDomain& domain() const { return domain_; }
  [[nodiscard]] std::uint32_t num_inputs() const { return static_cast<std::uint32_t>(inputs_.size()); }

  /// Buffered flits on one input VC (tests/inspection).
  [[nodiscard]] std::size_t vc_occupancy(std::uint32_t in_port, std::uint32_t vc) const {
    return inputs_[in_port].vcs[vc].count;
  }

 private:
  /// Idle VCs hold no flits; Routing VCs hold their head flit at the front.
  enum class VcState : std::uint8_t { Idle, Routing, VcAlloc, Active };

  /// One input VC. Its flits sit in ring_[flat(in, vc) * vc_depth_ ...],
  /// oldest at `head`, `count` of them in order around the ring.
  struct VirtualChannel {
    std::uint32_t head = 0;   ///< ring position of the front flit
    std::uint32_t count = 0;  ///< buffered flits (<= vc_depth_)
    VcState state = VcState::Idle;
    Cycle state_since = 0;
    std::uint32_t out_port = 0;
    std::uint32_t out_vc = 0;
  };

  struct InputPort {
    std::vector<VirtualChannel> vcs;
    CreditFn credit_return;
    std::uint64_t live = 0;  ///< bit v set iff VC v is not Idle
  };

  struct OutputPort {
    OutputPortConfig cfg;
    std::vector<std::uint32_t> credits;  ///< per downstream VC
    std::vector<std::uint8_t> vc_taken;  ///< downstream VC held by an input VC
    Cycle busy_until = 0;                ///< channel serializing until
    RoundRobinArbiter vc_arb;            ///< VA arbiter over input VCs
    RoundRobinArbiter sa_arb;            ///< SA arbiter over input ports
    explicit OutputPort(const OutputPortConfig& c, std::uint32_t flat_vcs,
                        std::uint32_t num_inputs)
        : cfg(c), credits(c.vcs, c.credits_per_vc), vc_taken(c.vcs, 0),
          vc_arb(flat_vcs), sa_arb(num_inputs) {}
  };

  /// Per-tick request lists, reused so a tick never allocates. Sized on
  /// the first busy tick rather than in the ctor, so building a network
  /// pays nothing for them. Lists are ascending, as grant() requires. A
  /// count is non-zero only during a tick, and only for an output whose
  /// bit is set in the matching output bitset; the stage that consumes a
  /// list zeroes its count and clears the bitset.
  struct Scratch {
    std::vector<std::uint32_t> va;        ///< [out * flat VCs]: VA requesters
    std::vector<std::uint32_t> va_count;  ///< per output
    std::vector<std::uint64_t> va_outs;   ///< bitset: outputs with VA requests
    std::vector<std::uint32_t> sa;        ///< [out * inputs]: SA nominating inputs
    std::vector<std::uint32_t> sa_count;  ///< per output
    std::vector<std::uint64_t> sa_outs;   ///< bitset: outputs with SA requests
    std::vector<std::uint32_t> nominee;   ///< per input: its SA-nominated VC
    std::vector<std::uint32_t> ready;     ///< one input's SA-eligible VCs
  };

  void size_scratch();
  /// Marks VC `vc` of `in_port` non-Idle (and the port live).
  void set_live(std::uint32_t in_port, std::uint32_t vc);
  /// Marks VC `vc` of `in_port` Idle (and the port dead if it was the last).
  void clear_live(std::uint32_t in_port, std::uint32_t vc);
  void collect_requests(Cycle now);
  void stage_vc_alloc(Cycle now);
  void stage_switch(Cycle now);

  [[nodiscard]] std::uint32_t flat(std::uint32_t in_port, std::uint32_t vc) const {
    return in_port * vcs_per_input_ + vc;
  }

  /// Front flit of a non-empty input VC.
  [[nodiscard]] const Flit& front(std::uint32_t in_port, std::uint32_t vc) const {
    const VirtualChannel& ch = inputs_[in_port].vcs[vc];
    return ring_[std::size_t{flat(in_port, vc)} * vc_depth_ + ch.head];
  }

  des::ClockDomain& domain_;
  std::string name_;
  std::uint32_t vcs_per_input_;
  std::uint32_t vc_depth_;
  std::uint32_t credit_delay_;
  RouteFn route_;
  std::vector<InputPort> inputs_;
  std::vector<Flit> ring_;  ///< every input VC's ring, vc_depth_ flits each
  std::vector<OutputPort> outputs_;
  std::vector<RoundRobinArbiter> input_sa_arb_;  ///< per input: pick one VC
  RouterCounters counters_;
  /// Bitset over input ports: bit i set iff inputs_[i].live != 0. All
  /// words zero means quiescent.
  std::vector<std::uint64_t> live_ports_;
  Scratch scratch_;
};

}  // namespace erapid::router
