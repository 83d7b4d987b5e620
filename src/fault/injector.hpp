// FaultInjector — replays a FaultPlan against a live network and measures
// how the Lock-Step plane recovers.
//
// The injector owns no model state: it schedules its events on the shared
// DES engine and mutates the same LaneMap / OpticalTerminal / Reconfig-
// Manager objects the protocol uses, so a failure is indistinguishable
// from real hardware dying mid-window. With an empty plan arm() schedules
// nothing and installs no hooks — the event stream (and therefore every
// statistic) is byte-identical to a run without the fault subsystem.
//
// Recovery measurement. When a lane owned by board s dies, the flow s→d
// it carried is "pending reroute" until s next gains *any* lane toward d
// (observed through the manager's grant hook) — at which point the DBR
// plane has re-homed the flow and time-to-reroute is the grant cycle
// minus the failure cycle. A reconfiguration window that opens while any
// reroute is pending counts as degraded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/engine.hpp"
#include "fault/plan.hpp"
#include "optical/terminal.hpp"
#include "reconfig/manager.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"
#include "util/rng.hpp"

namespace erapid::fault {

/// What the faults did to the data plane and how the protocol absorbed
/// them. The control-plane side (ctrl_*, stale directives, RC crashes and
/// ring failover) lives only in the manager's ControlCounters.
struct RecoveryStats {
  std::uint64_t lanes_failed = 0;    ///< lane deaths injected
  std::uint64_t lanes_degraded = 0;  ///< laser caps applied (skips dark lanes)
  std::uint64_t packets_rehomed = 0; ///< in-flight packets re-queued on failure
  std::uint64_t reroutes_completed = 0;
  std::uint64_t reroutes_pending = 0;   ///< failed flows never re-homed
  std::uint64_t degraded_windows = 0;   ///< windows opened with a reroute pending
  Cycle first_failure = kNeverCycle;
  Cycle last_recovery = 0;
  CycleDelta worst_time_to_reroute = 0;

  // ---- self-healing: lane repair and re-admission ----
  std::uint64_t lanes_repaired = 0;          ///< transient failures repaired
  std::uint64_t readmissions_completed = 0;  ///< repaired lanes re-granted by DBR
  std::uint64_t readmissions_pending = 0;    ///< repaired but not yet re-granted
  CycleDelta worst_downtime = 0;             ///< longest fail→repair outage
  CycleDelta worst_readmission_wait = 0;     ///< longest repair→re-grant wait

  // ---- data-plane integrity (CRC + link-level ARQ) ----
  std::uint64_t crc_dropped = 0;       ///< packets failing the RX CRC check
  std::uint64_t arq_retransmits = 0;   ///< bounded retransmissions issued
  std::uint64_t arq_dead_letters = 0;  ///< packets abandoned after the retry limit

  /// True when a data-plane fault touched the run. The report's `fault`
  /// block appears when this or ControlCounters::faulted() holds.
  [[nodiscard]] bool any() const {
    return lanes_failed || lanes_degraded || lanes_repaired || crc_dropped;
  }
};

/// Schedules a FaultPlan's events and tracks recovery.
class FaultInjector {
 public:
  /// `terminals` (indexed by board id) and `receivers` (flat
  /// [board * W + wavelength]) are the network's shared lists; both must
  /// outlive the injector. Validates the plan against `cfg` (throws on
  /// out-of-range events). `hub` (optional) receives fault/recovery
  /// instant marks.
  FaultInjector(des::Engine& engine, const topology::SystemConfig& cfg,
                topology::LaneMap& lane_map, reconfig::ReconfigManager& manager,
                const std::vector<optical::OpticalTerminal*>& terminals,
                const std::vector<optical::Receiver*>& receivers, FaultPlan plan,
                obs::Hub* hub = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules all plan events and installs the manager hooks. No-op for
  /// an empty plan. Call once, before the first event's cycle.
  void arm();

  /// Live recovery metrics.
  [[nodiscard]] RecoveryStats stats() const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct PendingReroute {
    BoardId src;
    BoardId dest;
    Cycle failed_at = 0;
  };
  /// A lane currently down, awaiting its scheduled repair.
  struct FailedLane {
    BoardId dest;
    WavelengthId wavelength;
    BoardId owner;  ///< owner at failure time (invalid = was dark)
    Cycle failed_at = 0;
  };
  /// A repaired lane awaiting its DBR re-grant (re-admission).
  struct Readmit {
    BoardId dest;
    WavelengthId wavelength;
    Cycle failed_at = 0;
    Cycle repaired_at = 0;
  };

  void inject(const FaultEvent& e);
  void inject_lane_fail(BoardId dest, WavelengthId w, Cycle now, Cycle repair_at);
  void inject_laser_degrade(const FaultEvent& e, Cycle now);
  void inject_bit_error(const FaultEvent& e, Cycle now);
  void inject_rc_crash(const FaultEvent& e, Cycle now);
  void repair_lane(BoardId dest, WavelengthId w, Cycle now);
  void on_grant(BoardId src, BoardId dest, WavelengthId w, Cycle at);
  [[nodiscard]] bool ctrl_fault(reconfig::CtrlStage stage, BoardId b);

  des::Engine& engine_;
  const topology::SystemConfig& cfg_;
  topology::LaneMap& lane_map_;
  reconfig::ReconfigManager& manager_;
  const std::vector<optical::OpticalTerminal*>& terminals_;
  const std::vector<optical::Receiver*>& receivers_;  ///< [b*W + w]
  FaultPlan plan_;
  util::Rng rng_;  ///< dedicated stream for random ctrl loss (plan.seed)

  bool armed_ = false;
  RecoveryStats stats_;
  std::vector<PendingReroute> pending_;
  std::vector<FailedLane> failed_;
  std::vector<Readmit> readmit_;
  obs::Hub* hub_;
  obs::MetricId m_faults_ = 0;
  obs::MetricId m_reroute_wait_ = 0;
  // Recovery histograms: registered only when the plan holds a transient
  // LaneFail, so plans without one (and every committed fixture) see an
  // unchanged metric namespace.
  obs::MetricId m_downtime_ = 0;
  obs::MetricId m_readmit_wait_ = 0;
  /// Outstanding deterministic ctrl_drop budget, [stage][board] — the hook
  /// consumes these before drawing from the random process.
  std::vector<std::uint32_t> drop_budget_[2];
};

}  // namespace erapid::fault
