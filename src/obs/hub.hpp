// Observability hub — one per Simulation, threaded through the model layers.
//
// The Hub owns the optional ChromeTraceWriter and the MetricsRegistry and is the
// single object instrumented components talk to. Every component takes an
// `obs::Hub*` defaulting to nullptr, so
//
//   * library users and tests that build components directly pay nothing
//     and change nothing;
//   * with obs off (the default) the Simulation builds no Hub, so the only
//     cost at a probe site is one null-pointer test — the golden fixture
//     pins that the event stream is byte-identical to pre-obs builds. A
//     Hub that exists is on: there is no second switch to test.
//
// The Hub also implements des::Engine::DispatchHook: installed by the
// Simulation driver, it self-profiles the event calendar (events per tag,
// queue depth, events/sim-cycle counter tracks) without des/ depending on
// the obs layer. The per-event part of that profile (des.events,
// des.queue_depth, des.tag.*) accumulates in the Hub's own cells, so a
// dispatch pays no registry lookup; snapshot() folds the cells into the
// registry once, after the last dispatch, and the snapshot renders exactly
// as if every sample had been observe()d.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "stats/streaming.hpp"
#include "util/types.hpp"

namespace erapid::obs {

/// Runtime observability options (the `obs.*` + `monitor.*` INI sections).
struct ObsConfig {
  /// Master switch: off keeps the simulation byte-identical to a build
  /// without the subsystem.
  bool enabled = false;
  /// Trace output path; empty = metrics only, no trace file.
  std::string trace_path;
  /// Cadence of sampled counter tracks (power, backlog, lanes lit) — and
  /// of the power-cap monitor's envelope checks.
  CycleDelta counter_interval = 500;
  /// Verbose per-event dispatch spans in the trace (large files; off by
  /// default — the aggregated des.* counter tracks are usually enough).
  bool trace_events = false;
  /// Runtime envelope checks (the `monitor.*` section); all off by
  /// default — the report then carries no `obs_monitors` block.
  MonitorConfig monitors;
  /// A monitor violation ends the simulation through the contract layer
  /// instead of just being reported.
  bool monitor_fail_fast = false;
  /// Telemetry JSONL output path; empty = no telemetry plane. The window
  /// event exists only when set, so default-off runs keep their DES event
  /// sequence (and golden reports) byte-identical.
  std::string telemetry_path;
  /// Cycles per telemetry record.
  CycleDelta telemetry_window = 2000;
  /// Flight recorder ring depth; 0 = no flight recorder.
  std::size_t flight_recorder_depth = 0;
  /// Flight recorder dump path (written only when a trigger fires).
  std::string flight_recorder_path = "flight_recorder.json";

  [[nodiscard]] bool telemetry_on() const { return enabled && !telemetry_path.empty(); }
  [[nodiscard]] bool flight_recorder_on() const {
    return enabled && flight_recorder_depth > 0;
  }
};

/// Well-known track names (one source of truth for the writer and the
/// summarize_trace.py validator).
struct Tracks {
  static constexpr const char* kEngine = "des.engine";
  static constexpr const char* kReconfig = "reconfig";
  static constexpr const char* kLanes = "optical.lanes";
  static constexpr const char* kPower = "power";
  static constexpr const char* kFault = "fault";
  static constexpr const char* kCounters = "counters";
  /// Registered only when at least one monitor is configured, so
  /// monitor-free traces stay byte-identical to pre-monitor builds.
  static constexpr const char* kMonitors = "obs.monitors";
  /// Registered only when the telemetry plane is configured (same
  /// byte-compatibility rule as kMonitors).
  static constexpr const char* kTelemetry = "obs.telemetry";
};

/// Central observability context (see file comment).
class Hub final : public des::Engine::DispatchHook {
 public:
  explicit Hub(const ObsConfig& cfg);
  ~Hub() override;

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] const ObsConfig& config() const { return cfg_; }

  /// Null when tracing is off (metrics may still be on).
  [[nodiscard]] ChromeTraceWriter* trace() { return trace_.get(); }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  /// Null unless at least one `monitor.*` check is configured.
  [[nodiscard]] MonitorSet* monitors() { return monitors_.get(); }
  [[nodiscard]] const MonitorSet* monitors() const { return monitors_.get(); }
  /// Null unless `obs.flight_recorder_depth > 0`.
  [[nodiscard]] FlightRecorder* flight() { return flight_.get(); }
  [[nodiscard]] const FlightRecorder* flight() const { return flight_.get(); }
  /// Null until init_telemetry on a telemetry-configured run.
  [[nodiscard]] Telemetry* telemetry() { return telemetry_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const { return telemetry_.get(); }

  /// Builds the telemetry plane (estimator + detector + emitter) on a
  /// telemetry-configured run; a no-op otherwise. The driver calls this
  /// once, after the network exists.
  void init_telemetry(des::Engine& engine, std::uint32_t boards,
                      Telemetry::Sampler sampler);

  // Pre-registered tracks, in a fixed order so track ids (trace tids) are
  // the same in every run.
  [[nodiscard]] TrackId track_engine() const { return t_engine_; }
  [[nodiscard]] TrackId track_reconfig() const { return t_reconfig_; }
  [[nodiscard]] TrackId track_lanes() const { return t_lanes_; }
  [[nodiscard]] TrackId track_power() const { return t_power_; }
  [[nodiscard]] TrackId track_fault() const { return t_fault_; }
  [[nodiscard]] TrackId track_counters() const { return t_counters_; }
  [[nodiscard]] TrackId track_telemetry() const { return t_telemetry_; }

  /// The metrics snapshot a report carries (MetricsRegistry::snapshot):
  /// first folds the engine self-profile into the registry. The one way to
  /// read the des.* dispatch metrics; call it once, after the last event —
  /// a dispatch after it fails through the contract layer.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> snapshot(Cycle now);

  /// Finalizes the trace file and fails through the contract layer if it
  /// could not be written. Idempotent.
  void close(Cycle now);

  // ---- des::Engine::DispatchHook (engine self-profiling) ----
  void on_dispatch_begin(const char* tag, Cycle now) override;
  void on_dispatch_end(const char* tag, Cycle now, std::size_t queue_size,
                       std::uint64_t executed) override;

 private:
  /// close() without the write check (also the destructor's path).
  void release(Cycle now);

  ObsConfig cfg_;
  std::unique_ptr<ChromeTraceWriter> trace_;
  MetricsRegistry metrics_;
  std::unique_ptr<MonitorSet> monitors_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<Telemetry> telemetry_;
  bool contract_observer_installed_ = false;

  TrackId t_engine_ = 0;
  TrackId t_reconfig_ = 0;
  TrackId t_lanes_ = 0;
  TrackId t_power_ = 0;
  TrackId t_fault_ = 0;
  TrackId t_counters_ = 0;
  TrackId t_monitors_ = 0;
  TrackId t_telemetry_ = 0;

  // Engine self-profiling state.
  MetricId m_events_ = 0;
  MetricId m_queue_depth_ = 0;
  MetricId m_events_per_cycle_ = 0;
  /// Per-tag dispatch cells, created on first sight of each tag's text and
  /// folded by snapshot() into a monotone dispatch counter
  /// (des.tag.<label>).
  struct TagMetrics {
    std::string label;
    std::uint64_t count = 0;
  };
  /// The cells of `tag` (nullptr is labelled "event").
  TagMetrics& tag_metrics(const char* tag);
  std::vector<TagMetrics> tag_metrics_;
  /// Tag pointer -> index into tag_metrics_. Looked up by address first;
  /// a new address whose text is already known joins that entry, so one
  /// label spelled at several schedule sites shares one cell.
  std::vector<std::pair<const char*, std::uint32_t>> tag_index_;
  std::uint64_t events_ = 0;
  stats::Streaming queue_depth_;
  bool folded_ = false;
  Cycle profile_cycle_ = 0;
  std::uint64_t events_this_cycle_ = 0;
  bool closed_ = false;
};

}  // namespace erapid::obs
