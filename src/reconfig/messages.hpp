// Control-plane message types for the Lock-Step protocol (paper §3.2,
// Figure 4). RC–RC messages travel a unidirectional electrical ring
// separate from the optical SRS; RC–LC messages traverse the on-board LC
// chain. Both are modelled with explicit per-hop latencies.
#pragma once

#include <cstdint>

#include "power/link_power.hpp"
#include "util/types.hpp"

namespace erapid::reconfig {

/// Per-flow statistics one RC reports about its *outgoing* link toward the
/// requesting board (the contents of a Board Request packet).
struct FlowStatsEntry {
  BoardId src;               ///< reporting (transmitting) board
  double buffer_util = 0.0;  ///< transmit-queue Buffer_util over last R_w
  std::uint32_t queued = 0;  ///< packets currently waiting
  std::uint32_t lanes = 0;   ///< lanes src currently owns toward the dest
};

/// One lane re-allocation decided by RC_d in the Reconfigure stage.
struct Directive {
  WavelengthId wavelength;
  BoardId old_owner;  ///< invalid ⇒ lane was dark (λ0 / previously released)
  BoardId new_owner;  ///< invalid ⇒ pure release (unused by the allocator)
  power::PowerLevel grant_level = power::PowerLevel::High;
};

/// Which control-plane medium a Lock-Step message traverses. Used by the
/// fault hook to decide whether a given board's packet is lost this stage.
enum class CtrlStage : std::uint8_t {
  PowerChain,     ///< Power_Request/Response on the on-board LC chain
  BandwidthRing,  ///< Board Request/Response circulation on the RC ring
};

/// Control-plane cost counters (the paper argues LS has "minimal control
/// overhead" — the ablation bench quantifies it with these). The ctrl_*
/// fields count fault-injected control-packet losses and the Lock-Step
/// recovery they triggered; all three stay zero without a fault plan.
struct ControlCounters {
  std::uint64_t power_cycles = 0;
  std::uint64_t bandwidth_cycles = 0;
  std::uint64_t ring_hops = 0;
  std::uint64_t chain_scans = 0;
  std::uint64_t level_changes = 0;
  std::uint64_t lane_grants = 0;
  std::uint64_t lane_releases = 0;
  std::uint64_t ctrl_drops = 0;     ///< control packets lost/corrupted (retried)
  std::uint64_t ctrl_retries = 0;   ///< retransmissions after an LC/RC timeout
  std::uint64_t ctrl_timeouts = 0;  ///< boards that sat a window out (retries exhausted)
  /// Drops whose directive was abandoned outright: the loss that exhausted
  /// the retry budget. Kept separate from ctrl_drops (losses that were
  /// recovered by a retransmission) so resilience reports can distinguish
  /// "retried and survived" from "gave up".
  std::uint64_t ctrl_exhausted_drops = 0;
  std::uint64_t stale_directives = 0;  ///< directives dropped (lane failed mid-protocol)

  // ---- RC crash / ring failover (fault injection; zero without faults) ----
  std::uint64_t rc_crashes = 0;          ///< RC nodes crashed
  std::uint64_t rc_repairs = 0;          ///< RC nodes brought back
  std::uint64_t watchdog_fires = 0;      ///< ring-token losses detected
  std::uint64_t tokens_regenerated = 0;  ///< tokens re-issued after a watchdog fire
  std::uint64_t frozen_windows = 0;      ///< LS windows run with >= 1 dead RC

  /// True when a control-plane fault touched the run: a lost or timed-out
  /// control packet, an RC crash, or a discarded directive. Shedding alone
  /// can discard directives, so this can hold without a fault plan.
  [[nodiscard]] bool faulted() const {
    return ctrl_drops || ctrl_timeouts || rc_crashes || stale_directives;
  }
};

}  // namespace erapid::reconfig
