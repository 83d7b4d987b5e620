// Online monitors — declarative runtime checks over the metrics a run emits.
//
// PR 3's obs layer records; this subsystem *watches*. A MonitorSet is a
// small, INI-configured set of envelope checks evaluated while the
// simulation runs (power cap at every recorder sample, DBR quiescence at
// every re-solve settlement) plus end-of-run checks (throughput floor,
// p99 latency ceiling) evaluated once at finalize. Each check that fires
//
//   * emits a deterministic trace instant on the `obs.monitors` track
//     (name `monitor.<check>`, args {threshold, value}),
//   * records worst value / violation count / first-violation cycle for
//     the report's `obs_monitors` block,
//   * and, with `obs.monitor_fail_fast = true`, ends the simulation
//     through the contract layer (ModelInvariantError) so batch sweeps
//     fail loudly at the first breached envelope instead of producing a
//     silently-out-of-budget result.
//
// Determinism: checks observe only simulated-time quantities already
// flowing through the Hub, thresholds come from the config, and every
// verdict field is rendered with the trace layer's fixed formatting —
// two same-seed runs produce byte-identical `obs_monitors` blocks. With
// no check configured (`MonitorConfig::any() == false`) no MonitorSet is
// created and the report is byte-identical to a monitors-free build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/types.hpp"

namespace erapid::obs {

/// The `monitor.*` INI section. A threshold of 0 disables its check.
struct MonitorConfig {
  /// Ceiling on the instantaneous optical power envelope (mW), checked at
  /// every recorder sample (`obs.counter_interval` cadence).
  double power_cap_mw = 0.0;
  /// Floor on end-of-run accepted throughput (fraction of N_c).
  double throughput_floor = 0.0;
  /// Ceiling on end-of-run labelled-packet p99 latency (cycles).
  double p99_latency_ceiling = 0.0;
  /// Deadline on DBR convergence (cycles from a re-solve's Reconfigure
  /// stage to its last lane grant settling; "To Reconfigure or Not to
  /// Reconfigure": convergence time decides whether DBR pays off).
  CycleDelta quiescence_deadline = 0;
  /// Ceiling on a transient fault's full recovery arc (cycles from a lane
  /// failing to the repaired lane's DBR re-admission grant landing).
  CycleDelta max_recovery_cycles = 0;
  /// Deadline on completion-bounded workload makespan (cycles). Only
  /// meaningful on runs with a completion-bounded `workload.kind`; a
  /// workload that hits its horizon without completing always violates.
  CycleDelta workload_deadline = 0;

  [[nodiscard]] bool any() const {
    return power_cap_mw > 0.0 || throughput_floor > 0.0 || p99_latency_ceiling > 0.0 ||
           quiescence_deadline > 0 || max_recovery_cycles > 0 || workload_deadline > 0;
  }
};

/// End-of-run quantities the simulation driver feeds the final checks.
struct FinalSample {
  Cycle now = 0;
  double accepted_fraction = 0.0;
  double latency_p99 = 0.0;
  /// True when a completion-bounded workload drove the run (the
  /// workload_deadline check is skipped otherwise).
  bool workload_ran = false;
  bool workload_completed = false;
  Cycle workload_completion = 0;
};

/// One run's active checks (see file comment). Owned by the Hub; only
/// built when at least one check is configured.
class MonitorSet {
 public:
  /// `trace` may be null (metrics-only run: verdicts still recorded, no
  /// instants). `track` is the pre-registered `obs.monitors` track.
  MonitorSet(const MonitorConfig& cfg, bool fail_fast, ChromeTraceWriter* trace, TrackId track);

  // ---- online feeds -----------------------------------------------------
  /// Instantaneous power envelope sample (recorder cadence).
  void sample_power(Cycle now, double mw);
  /// A DBR re-solve issued directives (grants now outstanding).
  void dbr_resolve(Cycle now);
  /// All of one re-solve's directives settled (granted or dropped stale).
  void dbr_quiesced(Cycle resolve_at, Cycle last_settle);
  /// A repaired lane was re-admitted by the DBR plane `took` cycles after
  /// it originally failed (the fault injector feeds this).
  void recovery(Cycle now, CycleDelta took);

  // ---- end-of-run -------------------------------------------------------
  /// Runs the final checks (throughput floor, p99 ceiling, unsettled
  /// re-solves past the quiescence deadline). Call exactly once.
  void finalize(const FinalSample& fin);

  [[nodiscard]] std::uint64_t violations() const;
  [[nodiscard]] bool all_ok() const { return violations() == 0; }

  /// Observer of every violation, called before fail-fast can unwind —
  /// the Hub points this at the flight recorder.
  using ViolationHook =
      std::function<void(const char* name, Cycle now, double value, double threshold)>;
  // erapid-analyze: allow(contract-coverage)
  void set_violation_hook(ViolationHook hook) { violation_hook_ = std::move(hook); }

  /// What the actuation hook decided about a violation. `Default` keeps the
  /// configured fail-fast behaviour; `Suppress` converts the violation into
  /// a recorded-but-survivable event (the degradation controller has taken
  /// a mitigating action, or was told to merely record); `Abort` forces the
  /// fail-fast unwind regardless of `obs.monitor_fail_fast`.
  enum class ActuationDecision { Default, Suppress, Abort };

  /// Decides the fate of a violation *after* it is recorded and the
  /// violation hook (flight recorder) has seen it. The degradation
  /// controller (src/resilience) installs this to turn envelope breaches
  /// into staged actions instead of aborts. Without a hook every violation
  /// takes the Default path — byte-identical to pre-hook behaviour.
  using ActuationHook = std::function<ActuationDecision(const char* name, Cycle now,
                                                        double value, double threshold)>;
  // erapid-analyze: allow(contract-coverage)
  void set_actuation_hook(ActuationHook hook) { actuation_hook_ = std::move(hook); }

  /// Name-sorted (check, rendered JSON verdict) pairs — the report's
  /// `obs_monitors` block. Each verdict is
  ///   {"threshold": t, "worst": w, "violations": n,
  ///    "first_violation": c, "ok": bool}.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> report() const;

 private:
  struct Check {
    const char* name = "";
    double threshold = 0.0;
    bool enabled = false;
    /// Worst value seen in the check's bad direction (max for ceilings,
    /// min for floors); meaningful once `observed`.
    double worst = 0.0;
    bool observed = false;
    std::uint64_t violations = 0;
    Cycle first_violation = 0;
  };

  /// Records `value` against the check and fires on violation.
  void check_ceiling(Check& c, Cycle now, double value);
  void check_floor(Check& c, Cycle now, double value);
  void fire(Check& c, Cycle now, double value);

  bool fail_fast_;
  ViolationHook violation_hook_;
  ActuationHook actuation_hook_;
  ChromeTraceWriter* trace_;
  TrackId track_;

  Check power_;
  Check throughput_;
  Check p99_;
  Check quiescence_;
  Check recovery_;
  Check workload_;

  /// Reconfigure-stage cycles of re-solves whose grants are still
  /// outstanding (settled ones are removed; leftovers are judged against
  /// the deadline at finalize).
  std::vector<Cycle> pending_resolves_;
  bool finalized_ = false;
};

}  // namespace erapid::obs
