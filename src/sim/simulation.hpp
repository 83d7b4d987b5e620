// Experiment driver implementing the paper's measurement methodology
// (§4): warm the network up under load until steady state, label the
// packets injected during a measurement interval, then run until every
// labelled packet is delivered (bounded by a drain cap for post-saturation
// loads). Reports accepted throughput, labelled-packet latency statistics
// and time-averaged optical power.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/hub.hpp"
#include "reconfig/manager.hpp"
#include "resilience/controller.hpp"
#include "sim/network.hpp"
#include "sim/recorder.hpp"
#include "stats/histogram.hpp"
#include "stats/streaming.hpp"
#include "topology/capacity.hpp"
#include "traffic/patterns.hpp"
#include "workload/driver.hpp"
#include "workload/spec.hpp"
#include "workload/stats.hpp"

namespace erapid::sim {

/// All knobs of one simulation run.
struct SimOptions {
  topology::SystemConfig system;
  reconfig::ReconfigConfig reconfig;
  /// Per-level link electricals (Table 1 by default; substitute for
  /// electrical-baseline or transition-latency studies).
  power::LinkPowerModel power_model;
  traffic::PatternKind pattern = traffic::PatternKind::Uniform;
  double hotspot_fraction = 0.2;  ///< only for PatternKind::Hotspot
  std::uint32_t hotspot_node = 0; ///< only for PatternKind::Hotspot
  double load_fraction = 0.5;  ///< offered load as a fraction of N_c
  std::uint64_t seed = 1;
  Cycle warmup_cycles = 20000;
  Cycle measure_cycles = 30000;
  Cycle drain_limit = 150000;  ///< cap on the post-measurement drain
  /// Faults injected during the run (default: none — the fault subsystem
  /// then schedules no events and the run is identical to a fault-free
  /// build).
  fault::FaultPlan fault;
  /// Observability (tracing + metrics; the `obs.*` INI section). Disabled
  /// by default: the run is byte-identical to a build without the obs
  /// subsystem.
  obs::ObsConfig obs;
  /// Structured workload (the extended `workload.*` section). The default
  /// kind (bernoulli) keeps the legacy open-loop traffic path and a
  /// byte-identical report.
  workload::WorkloadSpec workload;
  /// Survivability policies (the `degrade.*` section). With no policy
  /// configured (any() == false) no controller is built and the run is
  /// byte-identical to a build without the resilience subsystem.
  resilience::DegradeConfig degrade;

  /// Cross-field checks (throws ModelInvariantError): the workload spec,
  /// degrade policies against the armed monitors, and a run window
  /// warmup + measure + drain_limit that fits in a Cycle.
  void validate() const;
};

/// Results of one run.
struct SimResult {
  // Offered / accepted load, packets per node per cycle.
  double offered_pkt_node_cycle = 0.0;
  double accepted_pkt_node_cycle = 0.0;
  double capacity_pkt_node_cycle = 0.0;  ///< analytic N_c
  double offered_fraction = 0.0;         ///< = offered / N_c
  double accepted_fraction = 0.0;        ///< = accepted / N_c

  // Labelled-packet latency (cycles).
  double latency_avg = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;

  // Time-averaged optical power over the measurement interval (mW):
  // every lit laser/receiver pair counts for the full duration it is on.
  double power_avg_mw = 0.0;

  // Utilization-weighted ("active") power over the measurement interval
  // (mW): lane power integrated only while serializing packets. This is
  // the metric the paper's power panels track (a lit-but-idle link does
  // not register; see DESIGN.md).
  double active_power_avg_mw = 0.0;

  // Bookkeeping.
  std::uint64_t packets_generated = 0;
  std::uint64_t packets_delivered_measured = 0;
  std::uint64_t labelled_generated = 0;
  std::uint64_t labelled_delivered = 0;
  bool drained = false;  ///< all labelled packets arrived before the cap
  Cycle end_cycle = 0;
  reconfig::ControlCounters control;
  fault::RecoveryStats fault;  ///< all-zero (any() == false) without a plan
  /// Name-sorted metrics snapshot (name, rendered JSON value); empty when
  /// obs is off — the JSON report then matches pre-obs builds byte-exactly.
  std::vector<std::pair<std::string, std::string>> metrics;
  /// Name-sorted monitor verdicts (check, rendered JSON); empty unless at
  /// least one `monitor.*` check was configured on an obs-enabled run —
  /// the report then matches monitor-free builds byte-exactly.
  std::vector<std::pair<std::string, std::string>> monitors;
  /// Total monitor violations across all checks (0 with none configured).
  std::uint64_t monitor_violations = 0;
  /// Structured-workload accounting; inactive (kind empty, no report
  /// block) on legacy Bernoulli runs.
  workload::WorkloadStats workload;
  /// Whole-run roll-up of the telemetry plane and flight recorder;
  /// inactive (no report block) unless one of them was configured.
  struct TelemetrySummary {
    bool active = false;
    std::uint64_t windows = 0;
    std::uint64_t phase_changes = 0;
    std::uint64_t final_phase = 0;
    std::uint64_t tm_bytes = 0;
    std::uint64_t tm_packets = 0;
    std::uint64_t tm_flows = 0;
    double tm_skew = 0.0;
    double energy_total_mw_cycles = 0.0;
    double energy_laser_mw_cycles = 0.0;
    double energy_serdes_mw_cycles = 0.0;
    std::uint64_t flight_events = 0;
    std::uint64_t flight_dumps = 0;
  };
  TelemetrySummary telemetry;
  /// Degradation-controller stats; empty (no report block) unless a
  /// `degrade.*` policy was configured.
  std::optional<resilience::ControllerStats> resilience;
  /// True when monitors ran and every configured check held.
  [[nodiscard]] bool monitors_ok() const {
    return monitor_violations == 0;
  }
};

/// One self-contained simulation (engine + network + traffic driver +
/// metrics). The ctor is the only place that looks at workload.kind: it
/// builds one workload::Driver, and run() drives it through the kind's
/// methodology.
class Simulation {
 public:
  explicit Simulation(const SimOptions& opts);

  /// Runs the configured workload and returns the metrics. Open-loop
  /// kinds (bernoulli, tenants) follow the paper's warmup → measurement →
  /// drain methodology; completion-bounded kinds run until delivered-byte
  /// completion (or workload.horizon_cycles).
  SimResult run();

  // Exposed for tests and custom experiment loops.
  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] des::Engine& engine() { return engine_; }
  [[nodiscard]] const SimOptions& options() const { return opts_; }
  [[nodiscard]] double capacity() const { return capacity_; }
  /// Null unless obs.enabled.
  [[nodiscard]] obs::Hub* hub() { return hub_.get(); }

 private:
  /// One telemetry window's sample of the run (the Telemetry plane's
  /// sampler callback).
  [[nodiscard]] obs::WindowObservables sample_telemetry(Cycle now);
  /// Copies the telemetry/flight-recorder roll-up into the result.
  void fill_telemetry_summary(SimResult& r);

  SimOptions opts_;
  des::Engine engine_;
  std::unique_ptr<obs::Hub> hub_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<resilience::DegradeController> degrade_ctrl_;
  std::unique_ptr<Recorder> recorder_;
  std::unique_ptr<fault::FaultInjector> injector_;
  double capacity_;
  /// The methodology run() follows (fixed by workload.kind in the ctor).
  bool completion_bounded_;
  std::unique_ptr<workload::Driver> driver_;

  // Measurement state.
  stats::Streaming latency_;
  std::unique_ptr<stats::Histogram> latency_hist_;
  std::uint64_t delivered_measured_ = 0;
  std::uint64_t labelled_generated_ = 0;
  std::uint64_t labelled_delivered_ = 0;
  /// Labelled packets the ARQ abandoned — the drain loop stops waiting for
  /// them (they can never arrive).
  std::uint64_t labelled_dead_ = 0;
  bool in_measurement_ = false;
  obs::MetricId m_latency_hist_ = 0;
  obs::MetricId m_delivered_ = 0;
  /// Cached hub_->telemetry(); null (one branch per delivery) unless the
  /// plane is configured.
  obs::Telemetry* telemetry_ = nullptr;
  /// Delivered count at the last telemetry window boundary.
  std::uint64_t tele_last_delivered_ = 0;
};

/// Runs the same (pattern, load) point under all four network modes —
/// the building block of every figure bench.
struct ModeComparison {
  SimResult np_nb, p_nb, np_b, p_b;
};
[[nodiscard]] ModeComparison compare_modes(SimOptions base);

}  // namespace erapid::sim
