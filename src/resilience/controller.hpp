// Degradation controller — monitor violations become staged, reversible
// actions instead of aborts (DESIGN.md §15).
//
// The controller sits between the MonitorSet's actuation hook and the
// optical/reconfig planes. On a power-cap breach with policy degrade|shed
// it walks a brownout ladder, one rung per action, each action separated
// by `degrade.cooldown_cycles`:
//
//   Normal → CapMid    brownout-cap every lane to P_mid (packet-atomic
//                      down-transitions; future enables clamped too)
//          → CapLow    cap to P_low
//          → SleepIdle DLS-sleep lanes whose flow has no queued demand
//                      (wake-on-demand keeps liveness)
//          → Shed      withdraw `degrade.shed_step` lanes per action from
//                      the DBR pool (shed policy only), up to
//                      `degrade.max_shed_fraction` of the pool
//
// Recovery is hysteretic: once measured power stays at or below
// `recover_margin × power_cap_mw` for `recover_cycles` (and the cooldown
// has elapsed) the ladder steps back up one rung — shed batches re-enter
// the DBR pool LIFO through the same next-bandwidth-window grant path a
// repaired lane uses (PR 5), slept lanes wake on demand, caps re-raise.
//
// Slept-vs-failed invariant: the controller only ever touches healthy
// lanes through the DLS/brownout mechanisms and the LaneMap `shed` flag —
// never `mark_failed` — so the self-healing plane, `fault.lane_downtime`,
// and `monitor.max_recovery_cycles` cannot observe a deliberate sleep or
// shed as a fault.
//
// Determinism: every action is driven by monitor feeds (recorder cadence)
// and iterates lanes in (dest, wavelength) order; same-seed runs take
// byte-identical ladders.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/hub.hpp"
#include "power/link_power.hpp"
#include "resilience/policy.hpp"
#include "topology/rwa.hpp"
#include "util/types.hpp"

namespace erapid::optical {
class OpticalTerminal;
}

namespace erapid::resilience {

/// Brownout ladder rung, deepest engaged action first on the way down.
enum class Stage : std::uint8_t { Normal = 0, CapMid = 1, CapLow = 2, SleepIdle = 3, Shed = 4 };

const char* stage_name(Stage s);

/// End-of-run accounting for the report's `resilience` block.
struct ControllerStats {
  bool engaged = false;  ///< the ladder left Normal at least once
  Stage peak_stage = Stage::Normal;
  std::uint64_t steps_down = 0;
  std::uint64_t steps_up = 0;
  std::uint64_t lanes_shed = 0;
  std::uint64_t lanes_restored = 0;
  std::uint64_t lanes_slept = 0;
  std::uint64_t episodes = 0;  ///< completed Normal→…→Normal round trips
  CycleDelta time_degraded = 0;
  std::uint64_t suppressed_violations = 0;
};

/// Runtime half of the `degrade.*` surface (see file comment). Built by
/// the Simulation driver, after the network, when any policy is
/// configured.
class DegradeController {
 public:
  /// `power_cap_mw` is the monitor threshold the hysteresis margin is
  /// relative to (0 when no power-cap policy is configured). `lane_map`
  /// and the board-indexed `terminals` are the actuation targets; both
  /// belong to the network and must outlive the controller. `hub` may be
  /// null only in obs-disabled unit tests; flight/metrics are skipped then.
  DegradeController(const DegradeConfig& cfg, double power_cap_mw, topology::LaneMap& lane_map,
                    const std::vector<optical::OpticalTerminal*>& terminals, obs::Hub* hub);

  DegradeController(const DegradeController&) = delete;
  DegradeController& operator=(const DegradeController&) = delete;

  /// MonitorSet actuation hook: rules on a just-recorded violation and,
  /// for degrade|shed power-cap policies, takes the next ladder action.
  obs::MonitorSet::ActuationDecision on_violation(const char* name, Cycle now,
                                                  double value, double threshold);

  /// Hysteresis feed — every recorder power sample, after the monitor saw
  /// it. Steps the ladder back up when recovery is sustained.
  void on_power_sample(Cycle now, double mw);

  /// Closes an open degraded episode for end-of-run accounting. Call once,
  /// before the metrics snapshot.
  void finalize(Cycle now);

  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::optional<ResponsePolicy> policy_for(const char* name) const;
  void act(Cycle now);
  void step_up(Cycle now);
  void set_caps_all(power::PowerLevel cap, Cycle now);
  void clear_caps_all();
  std::uint32_t sleep_idle_lanes(Cycle now);
  std::uint32_t shed_batch(Cycle now);
  std::uint32_t restore_batch(Cycle now);
  void enter_stage(Stage next, Cycle now, bool down);
  void record(Cycle now, const char* action, std::uint32_t lanes);

  DegradeConfig cfg_;
  double cap_mw_;
  obs::Hub* hub_;
  topology::LaneMap& lane_map_;
  const std::vector<optical::OpticalTerminal*>& terminals_;

  Stage stage_ = Stage::Normal;
  bool acted_ = false;  ///< at least one action taken (gates the cooldown)
  Cycle last_action_ = 0;
  std::optional<Cycle> streak_start_;
  std::optional<Cycle> episode_start_;
  /// Shed batches in action order; restored LIFO.
  std::vector<std::vector<std::pair<BoardId, WavelengthId>>> shed_batches_;
  std::uint32_t shed_total_ = 0;
  std::uint32_t shed_limit_ = 0;

  ControllerStats stats_;

  obs::MetricId m_degraded_time_ = 0;
  obs::MetricId m_shed_batch_ = 0;
  obs::MetricId m_restore_batch_ = 0;
};

}  // namespace erapid::resilience
