// Phase-structured workload engine.
//
// A Schedule is a flat list of phases (episodes pre-unrolled); each phase
// injects `volume_packets` per node under a deterministic pacing plan and
// completes when every one of its packets has been delivered (or abandoned
// by the ARQ) — delivered-byte accounting, not a timer. Phases therefore
// serialize exactly like a blocking collective: phase k+1 starts gap_after
// cycles after phase k's last byte lands, which is precisely the dependency
// structure that makes reconfiguration latency visible end-to-end.
//
// Determinism contract: injections are paced by arithmetic on the phase
// start cycle (packet k of an R packets/cycle phase departs at
// start + floor(k / R), round-robin over source nodes), destination draws
// consume a single engine-owned RNG in injection order, and phase
// transitions ride the DES calendar — two same-seed runs inject and
// complete byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "des/engine.hpp"
#include "obs/hub.hpp"
#include "router/flit.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/driver.hpp"
#include "workload/stats.hpp"

namespace erapid::workload {

/// One phase of a structured workload.
struct PhaseDef {
  std::string name;
  std::uint32_t volume_packets = 0;  ///< packets injected per node
  double rate_pkt_node_cycle = 0.0;  ///< injection pace, packets/node/cycle
  std::uint32_t packet_flits = 0;    ///< 0 = the system default length
  CycleDelta gap_after = 0;          ///< idle cycles before the next phase
  /// Destination map; `rng` consulted only by stochastic phases.
  std::function<NodeId(NodeId, util::Rng&)> destination;
};

/// A full workload: phases in execution order, grouped into episodes.
struct Schedule {
  std::vector<PhaseDef> phases;
  /// Phases per episode (must divide phases.size(); 0 = one episode).
  std::uint32_t phases_per_episode = 0;
};

struct PhaseEngineConfig {
  std::uint32_t num_nodes = 0;
  std::uint32_t default_packet_flits = 8;
  std::uint32_t flit_bytes = 8;
  std::uint64_t seed = 1;
  std::string kind = "phases";  ///< workload kind name the stats carry
};

/// Drives a Schedule through the network (see file comment).
class PhaseEngine final : public Driver {
 public:
  /// `inject(packet, now)` hands each generated packet to the network;
  /// `hub` (optional) receives phase/episode duration histograms.
  PhaseEngine(des::Engine& engine, Schedule schedule, PhaseEngineConfig cfg,
              InjectFn inject, obs::Hub* hub = nullptr);

  /// Begins the first phase at engine.now(). Call exactly once.
  void start() override;

  void on_delivered(const router::Packet& p, Cycle now) override;
  /// Dead letters count as resolved — otherwise completion would wait on
  /// them forever.
  void on_dead_letter(const router::Packet& p, Cycle now) override;

  /// True once every phase has completed.
  [[nodiscard]] bool done() const override { return stats_.completed; }
  [[nodiscard]] WorkloadStats stats() const override { return stats_; }

  /// "" before start and after completion.
  [[nodiscard]] std::string_view active_phase() const override {
    if (!started_ || done() || phase_index_ >= schedule_.phases.size()) return {};
    return schedule_.phases[phase_index_].name;
  }

 private:
  void begin_phase();
  void pump();
  void complete_phase(Cycle now);
  void resolve_one(Cycle now);
  /// Absolute injection cycle of the current phase's k-th packet.
  [[nodiscard]] Cycle due(std::uint64_t k) const;
  [[nodiscard]] const PhaseDef& current() const { return schedule_.phases[phase_index_]; }
  [[nodiscard]] std::uint32_t phases_per_episode() const;

  des::Engine& engine_;
  Schedule schedule_;
  PhaseEngineConfig cfg_;
  InjectFn inject_;
  obs::Hub* hub_;
  util::Rng rng_;

  std::size_t phase_index_ = 0;
  Cycle phase_start_ = 0;
  Cycle episode_start_ = 0;
  std::uint64_t to_inject_ = 0;  ///< packets the current phase owes
  std::uint64_t injected_in_phase_ = 0;
  std::uint64_t resolved_in_phase_ = 0;
  bool started_ = false;
  des::EventHandle pending_;
  PacketSeq next_seq_ = 1;
  WorkloadStats stats_;

  obs::MetricId m_phase_hist_ = 0;
  obs::MetricId m_episode_hist_ = 0;
};

}  // namespace erapid::workload
