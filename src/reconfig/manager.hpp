// The Lock-Step (LS) reconfiguration protocol engine (paper §3).
//
// One ReconfigManager drives the RCs of all boards. Every reconfiguration
// window R_w it triggers either a power-awareness cycle (locally-controlled
// DPM, §3.1) or a bandwidth re-allocation cycle (globally-coordinated DBR,
// §3.2). With both enabled the paper's odd–even alternation applies:
// windows 1, 3, 5, ... run DPM; windows 2, 4, 6, ... run DBR.
//
// Timing model. LS is *lock-step*: within a stage every RC transmits and
// receives in unison ("as a new control packet is transmitted by RC_{i+1},
// it receives a control packet from the previous RC_i"), so all boards
// cross each stage boundary at the same cycle. We therefore advance the
// protocol in synchronized stages with the full per-stage latency
//
//   Link Request    (W + 1) LC-chain hops        RC → LC_0 → ... → RC
//   Board Request    B ring hops                 every RC's packet circles
//   Reconfigure      1 cycle                     local computation
//   Board Response   B ring hops
//   Link Response   (W + 1) LC-chain hops, then lane enables/disables
//
// and move the packet *contents* at stage boundaries. This is cycle-
// equivalent to delivering each forwarded packet individually (the data a
// board contributes is only examined after the stage completes) and keeps
// the protocol state machine readable. Hop counts are still tallied in
// ControlCounters for the control-overhead ablation.
//
// Wavelength-collision safety: a directive that moves an owned lane first
// disables the old owner's laser; the re-grant is chained on the lane's
// on_dark callback, so at no instant do two boards drive one (coupler,
// wavelength) pair. LaneMap enforces this invariant fatally.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "obs/hub.hpp"
#include "optical/terminal.hpp"
#include "power/link_power.hpp"
#include "reconfig/allocation.hpp"
#include "reconfig/dpm_strategy.hpp"
#include "reconfig/messages.hpp"
#include "reconfig/policy.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid::reconfig {

/// Protocol timing and policy configuration.
struct ReconfigConfig {
  CycleDelta window = 2000;        ///< R_w (paper: optimum 2000 cycles)
  CycleDelta ring_hop_cycles = 16; ///< RC → RC electrical ring hop
  CycleDelta lc_hop_cycles = 4;    ///< RC → LC / LC → LC on-board hop
  NetworkMode mode = NetworkMode::np_nb();
  power::PowerLevel grant_level = power::PowerLevel::High;
  /// Power scaling technique (future-work evaluation surface); Threshold
  /// is the paper's §3.1 rule.
  DpmStrategyKind dpm_strategy = DpmStrategyKind::Threshold;
  DpmStrategyParams dpm_params;
  /// Bounded retry for lost control packets (fault injection): how many
  /// retransmissions an RC attempts after an LC-chain or ring timeout
  /// before the board sits the window out. Each retry re-pays the stage's
  /// full hop latency.
  std::uint32_t ctrl_retry_limit = 3;
  /// Ring-token watchdog: when an RC crash swallows the circulating token,
  /// the next bandwidth cycle detects the loss after this timeout and
  /// deterministically regenerates the token (paying the timeout plus one
  /// extra ring rotation before the protocol proceeds).
  CycleDelta rc_watchdog_cycles = 128;
};

/// Drives DPM + DBR over all boards' terminals.
class ReconfigManager {
 public:
  /// `terminals` is the board-indexed list the network owns; it must
  /// outlive the manager. `hub` (optional) receives Lock-Step window spans,
  /// DBR re-solve marks and per-LC level-transition counter tracks.
  ReconfigManager(des::Engine& engine, const topology::SystemConfig& cfg,
                  const ReconfigConfig& rc_cfg, topology::LaneMap& lane_map,
                  const std::vector<optical::OpticalTerminal*>& terminals,
                  obs::Hub* hub = nullptr);

  /// Lights the static RWA lanes (call once at t=0 before traffic starts).
  void initialize_static_lanes();

  /// Begins the periodic reconfiguration windows.
  void start();

  /// Stops scheduling further windows.
  void stop();

  [[nodiscard]] const ControlCounters& counters() const { return counters_; }
  [[nodiscard]] const topology::LaneMap& lane_map() const { return lane_map_; }
  [[nodiscard]] const ReconfigConfig& config() const { return cfg_rc_; }

  // ---- fault-injection plumbing ----------------------------------------
  // All hooks default to unset; the no-fault event stream is untouched.

  /// Asked once per (stage, board, attempt) when a control packet is about
  /// to traverse its medium; returning true means that attempt's packet is
  /// lost and the RC retries (up to ctrl_retry_limit) before giving up.
  using CtrlFaultHook = std::function<bool(CtrlStage, BoardId, std::uint32_t attempt)>;
  void set_ctrl_fault_hook(CtrlFaultHook hook) { ctrl_fault_ = std::move(hook); }

  /// Observes every lane grant as it lands (src gains lane (dest, w)) —
  /// the fault injector measures time-to-reroute and re-admission waits
  /// with this.
  void set_grant_observer(
      std::function<void(BoardId src, BoardId dest, WavelengthId w, Cycle)> fn) {
    grant_observer_ = std::move(fn);
  }

  // ---- RC crash / ring failover (fault injection) -----------------------
  /// Crashes board `b`'s reconfiguration controller: the ring token it may
  /// hold is lost (the next bandwidth cycle's watchdog regenerates it), the
  /// ring bypasses the dead RC, and the board's lanes freeze at their last
  /// allocation (neither harvested, re-solved, nor granted) until repair.
  void crash_rc(BoardId b, Cycle now);

  /// Brings board `b`'s RC back: it rejoins the ring and its lanes re-enter
  /// the allocation at the next bandwidth window.
  void repair_rc(BoardId b, Cycle now);

  [[nodiscard]] bool rc_dead(BoardId b) const { return rc_dead_[b.value()] != 0; }

  /// Observes every reconfiguration window boundary (before the cycle runs).
  void set_window_observer(std::function<void(std::uint64_t index, Cycle)> fn) {
    window_observer_ = std::move(fn);
  }

 private:
  void on_window();
  void run_power_cycle(Cycle t);
  void run_bandwidth_cycle(Cycle t);
  /// `settled` (optional) is invoked exactly once with the cycle at which
  /// this directive reached a terminal state — its grant landed, or it was
  /// dropped as stale. The DBR convergence monitor rides this.
  void apply_directive(BoardId dest, const Directive& dir, Cycle now,
                       const std::function<void(Cycle)>& settled = {});

  /// Plays one board's control transmission against the fault hook.
  /// Returns the number of retransmissions that were needed (0 = clean
  /// first attempt), or nullopt when the retry budget was exhausted (the
  /// board times out of this window's cycle).
  [[nodiscard]] std::optional<std::uint32_t> ctrl_attempts(CtrlStage stage, BoardId b);

  /// Harvests every board's LC counters for the window ending at `now`.
  void harvest_all(Cycle now);

  des::Engine& engine_;
  const topology::SystemConfig& cfg_;
  ReconfigConfig cfg_rc_;
  topology::LaneMap& lane_map_;
  const std::vector<optical::OpticalTerminal*>& terminals_;

  // Last-window statistics per board (index = board id).
  std::vector<std::vector<optical::LaneSnapshot>> lane_stats_;
  std::vector<std::vector<optical::FlowSnapshot>> flow_stats_;

  // One strategy instance per board (strategies hold per-lane history,
  // mirroring the per-board LC hardware).
  std::vector<std::unique_ptr<DpmStrategy>> dpm_;

  /// Per-board window-start of the counters currently accumulating: a dead
  /// RC stops harvesting, so when it rejoins its first harvest spans the
  /// whole outage instead of one window.
  std::vector<Cycle> last_harvest_;
  std::uint64_t window_index_ = 0;
  bool running_ = false;
  des::EventHandle next_window_;
  ControlCounters counters_;

  // RC liveness (fault injection): dead RCs are bypassed by the ring and
  // their lanes frozen at the last allocation.
  std::vector<char> rc_dead_;
  std::uint32_t rc_dead_count_ = 0;
  /// Set when a crash may have swallowed the circulating ring token; the
  /// next bandwidth cycle pays the watchdog timeout and regenerates it.
  bool token_lost_ = false;

  CtrlFaultHook ctrl_fault_;
  std::function<void(BoardId, BoardId, WavelengthId, Cycle)> grant_observer_;
  std::function<void(std::uint64_t, Cycle)> window_observer_;

  // ---- observability ----------------------------------------------------
  obs::Hub* hub_;
  /// Per-board DVS level-change tally (feeds the per-LC counter tracks).
  std::vector<std::uint64_t> board_level_changes_;
  obs::MetricId m_windows_ = 0;
  obs::MetricId m_lanes_moved_ = 0;
  // Histograms (log2 buckets; see obs/metrics.hpp): LS window occupancy
  // split by R_w parity, re-solve→last-grant convergence, and per-stage
  // control retransmission counts.
  obs::MetricId m_window_dpm_ = 0;
  obs::MetricId m_window_dbr_ = 0;
  obs::MetricId m_dbr_convergence_ = 0;
  obs::MetricId m_ctrl_retries_ = 0;
};

}  // namespace erapid::reconfig
