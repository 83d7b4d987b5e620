#include "workload/phase.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/probe.hpp"
#include "util/expect.hpp"

namespace erapid::workload {

PhaseEngine::PhaseEngine(des::Engine& engine, Schedule schedule, PhaseEngineConfig cfg,
                         InjectFn inject, obs::Hub* hub)
    : engine_(engine),
      schedule_(std::move(schedule)),
      cfg_(cfg),
      inject_(std::move(inject)),
      hub_(hub),
      rng_(cfg.seed) {
  ERAPID_REQUIRE(cfg_.num_nodes >= 2, "phase engine needs >= 2 nodes");
  ERAPID_REQUIRE(cfg_.default_packet_flits >= 1 && cfg_.flit_bytes >= 1,
                 "packet geometry must be non-degenerate");
  ERAPID_REQUIRE(!schedule_.phases.empty(), "schedule has no phases");
  ERAPID_REQUIRE(schedule_.phases_per_episode == 0 ||
                     schedule_.phases.size() % schedule_.phases_per_episode == 0,
                 "phases_per_episode must divide the phase count");
  ERAPID_REQUIRE(static_cast<bool>(inject_), "phase engine needs an inject callback");
  for (const PhaseDef& p : schedule_.phases) {
    ERAPID_REQUIRE(p.volume_packets >= 1, "phase '" << p.name << "' has zero volume");
    ERAPID_REQUIRE(p.rate_pkt_node_cycle > 0.0,
                   "phase '" << p.name << "' has a non-positive rate");
    ERAPID_REQUIRE(static_cast<bool>(p.destination),
                   "phase '" << p.name << "' has no destination map");
  }
  stats_.kind = cfg_.kind;
  stats_.phases_total = static_cast<std::uint32_t>(schedule_.phases.size());
  stats_.episodes_total =
      static_cast<std::uint32_t>(schedule_.phases.size()) / phases_per_episode();
  if (hub_ != nullptr && hub_->enabled()) {
    m_phase_hist_ = hub_->metrics().histogram("workload.phase_cycles");
    m_episode_hist_ = hub_->metrics().histogram("workload.collective_cycles");
  }
}

std::uint32_t PhaseEngine::phases_per_episode() const {
  return schedule_.phases_per_episode != 0
             ? schedule_.phases_per_episode
             : static_cast<std::uint32_t>(schedule_.phases.size());
}

void PhaseEngine::start() {
  ERAPID_REQUIRE(!started_, "PhaseEngine started twice");
  started_ = true;
  begin_phase();
}

Cycle PhaseEngine::due(std::uint64_t k) const {
  const double aggregate =
      current().rate_pkt_node_cycle * static_cast<double>(cfg_.num_nodes);
  return phase_start_ +
         static_cast<Cycle>(std::floor(static_cast<double>(k) / aggregate));
}

void PhaseEngine::begin_phase() {
  phase_start_ = engine_.now();
  if (phase_index_ % phases_per_episode() == 0) episode_start_ = phase_start_;
  to_inject_ =
      static_cast<std::uint64_t>(current().volume_packets) * cfg_.num_nodes;
  injected_in_phase_ = 0;
  resolved_in_phase_ = 0;
  pump();
}

void PhaseEngine::pump() {
  const Cycle now = engine_.now();
  while (injected_in_phase_ < to_inject_ && due(injected_in_phase_) <= now) {
    const std::uint64_t k = injected_in_phase_++;
    const PhaseDef& phase = current();
    router::Packet p;
    p.seq = next_seq_++;
    p.src = NodeId{static_cast<std::uint32_t>(k % cfg_.num_nodes)};
    p.dst = phase.destination(p.src, rng_);
    p.flits = phase.packet_flits != 0 ? phase.packet_flits : cfg_.default_packet_flits;
    p.created = now;
    p.labelled = true;
    ++stats_.packets_injected;
    inject_(p, now);
  }
  if (injected_in_phase_ < to_inject_) {
    pending_ = engine_.schedule(due(injected_in_phase_) - now, [this] { pump(); },
                                "workload.inject");
  }
}

void PhaseEngine::on_delivered(const router::Packet& p, Cycle now) {
  ERAPID_REQUIRE(started_ && !stats_.completed,
                 "delivery fed to an idle PhaseEngine at cycle " << now);
  ++stats_.packets_delivered;
  stats_.bytes_delivered +=
      static_cast<std::uint64_t>(p.flits) * cfg_.flit_bytes;
  resolve_one(now);
}

void PhaseEngine::on_dead_letter(const router::Packet&, Cycle now) {
  ERAPID_REQUIRE(started_ && !stats_.completed,
                 "dead letter fed to an idle PhaseEngine at cycle " << now);
  ++stats_.packets_dead;
  resolve_one(now);
}

void PhaseEngine::resolve_one(Cycle now) {
  ++resolved_in_phase_;
  ERAPID_INVARIANT(resolved_in_phase_ <= injected_in_phase_,
                   "phase resolved more packets than it injected");
  if (injected_in_phase_ == to_inject_ && resolved_in_phase_ == to_inject_) {
    complete_phase(now);
  }
}

void PhaseEngine::complete_phase(Cycle now) {
  const Cycle phase_cycles = now - phase_start_;
  stats_.worst_phase_cycles = std::max(stats_.worst_phase_cycles, phase_cycles);
  ++stats_.phases_completed;
  ERAPID_OBSERVE(hub_, m_phase_hist_, static_cast<double>(phase_cycles));
  if ((phase_index_ + 1) % phases_per_episode() == 0) {
    const Cycle episode_cycles = now - episode_start_;
    stats_.worst_episode_cycles = std::max(stats_.worst_episode_cycles, episode_cycles);
    ++stats_.episodes_completed;
    ERAPID_OBSERVE(hub_, m_episode_hist_, static_cast<double>(episode_cycles));
  }
  const CycleDelta gap = current().gap_after;
  ++phase_index_;
  if (phase_index_ == schedule_.phases.size()) {
    stats_.completed = true;
    stats_.completion_cycle = now;
    return;
  }
  // Next phase starts through the calendar (never inline): completion fires
  // from inside a delivery event and phase start must not reenter it.
  pending_ = engine_.schedule(gap, [this] { begin_phase(); }, "workload.phase");
}

}  // namespace erapid::workload
