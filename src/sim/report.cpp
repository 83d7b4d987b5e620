#include "sim/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/expect.hpp"

namespace erapid::sim {

namespace {

class JsonObject {
 public:
  /// Multi-line object: one field per line at `indent + 2`.
  explicit JsonObject(int indent) : indent_(indent) { os_.precision(15); }

  /// Single-line object: {"a": 1, "b": 2}.
  static JsonObject one_line() {
    JsonObject o(0);
    o.one_line_ = true;
    return o;
  }

  template <typename T>
  void field(const char* name, const T& value) {
    sep();
    os_ << '"' << name << "\": ";
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<T, std::string>) {
      os_ << '"' << value << '"';
    } else {
      os_ << value;
    }
  }

  void raw_field(const char* name, const std::string& json) {
    sep();
    os_ << '"' << name << "\": " << json;
  }

  [[nodiscard]] std::string str() const {
    if (one_line_) return "{" + os_.str() + "}";
    return "{" + os_.str() + "\n" + pad(indent_) + "}";
  }

 private:
  static std::string pad(int n) { return std::string(static_cast<std::size_t>(n), ' '); }
  void sep() {
    if (one_line_) {
      os_ << (first_ ? "" : ", ");
    } else {
      os_ << (first_ ? "\n" : ",\n") << pad(indent_ + 2);
    }
    first_ = false;
  }
  std::ostringstream os_;
  int indent_;
  bool one_line_ = false;
  bool first_ = true;
};

/// The `resilience` block's fields: one list for the report and the bench
/// point alike.
void resilience_fields(JsonObject& d, const SimResult::ResilienceSummary& r) {
  d.field("engaged", r.engaged);
  d.field("peak_stage", r.peak_stage);
  d.field("steps_down", r.steps_down);
  d.field("steps_up", r.steps_up);
  d.field("lanes_shed", r.lanes_shed);
  d.field("lanes_restored", r.lanes_restored);
  d.field("lanes_slept", r.lanes_slept);
  d.field("episodes", r.episodes);
  d.field("time_degraded", r.time_degraded);
  d.field("suppressed_violations", r.suppressed_violations);
}

}  // namespace

std::string to_json(const SimResult& r, int indent) {
  JsonObject o(indent);
  o.field("offered_fraction", r.offered_fraction);
  o.field("accepted_fraction", r.accepted_fraction);
  o.field("offered_pkt_node_cycle", r.offered_pkt_node_cycle);
  o.field("accepted_pkt_node_cycle", r.accepted_pkt_node_cycle);
  o.field("capacity_pkt_node_cycle", r.capacity_pkt_node_cycle);
  o.field("latency_avg", r.latency_avg);
  o.field("latency_p50", r.latency_p50);
  o.field("latency_p95", r.latency_p95);
  o.field("latency_p99", r.latency_p99);
  o.field("latency_max", r.latency_max);
  o.field("power_avg_mw", r.power_avg_mw);
  o.field("active_power_avg_mw", r.active_power_avg_mw);
  o.field("packets_generated", r.packets_generated);
  o.field("packets_delivered_measured", r.packets_delivered_measured);
  o.field("labelled_generated", r.labelled_generated);
  o.field("labelled_delivered", r.labelled_delivered);
  o.field("drained", r.drained);
  o.field("end_cycle", r.end_cycle);
  o.field("lane_grants", r.control.lane_grants);
  o.field("lane_releases", r.control.lane_releases);
  o.field("dvs_level_changes", r.control.level_changes);
  o.field("power_cycles", r.control.power_cycles);
  o.field("bandwidth_cycles", r.control.bandwidth_cycles);
  o.field("ring_hops", r.control.ring_hops);
  // Fault-free runs must serialize byte-identically to builds predating
  // the fault subsystem, so the fault block only appears when faults hit.
  if (r.fault.any()) {
    JsonObject f(indent + 2);
    f.field("lanes_failed", r.fault.lanes_failed);
    f.field("lanes_degraded", r.fault.lanes_degraded);
    f.field("packets_rehomed", r.fault.packets_rehomed);
    f.field("reroutes_completed", r.fault.reroutes_completed);
    f.field("reroutes_pending", r.fault.reroutes_pending);
    f.field("degraded_windows", r.fault.degraded_windows);
    f.field("first_failure",
            r.fault.first_failure == kNeverCycle ? Cycle{0} : r.fault.first_failure);
    f.field("last_recovery", r.fault.last_recovery);
    f.field("worst_time_to_reroute", r.fault.worst_time_to_reroute);
    f.field("ctrl_drops", r.fault.ctrl_drops);
    f.field("ctrl_retries", r.fault.ctrl_retries);
    f.field("ctrl_timeouts", r.fault.ctrl_timeouts);
    f.field("ctrl_exhausted", r.fault.ctrl_exhausted);
    f.field("stale_directives", r.fault.stale_directives);
    f.field("lanes_repaired", r.fault.lanes_repaired);
    f.field("readmissions_completed", r.fault.readmissions_completed);
    f.field("readmissions_pending", r.fault.readmissions_pending);
    f.field("worst_downtime", r.fault.worst_downtime);
    f.field("worst_readmission_wait", r.fault.worst_readmission_wait);
    f.field("crc_dropped", r.fault.crc_dropped);
    f.field("arq_retransmits", r.fault.arq_retransmits);
    f.field("arq_dead_letters", r.fault.arq_dead_letters);
    f.field("rc_crashes", r.fault.rc_crashes);
    f.field("rc_repairs", r.fault.rc_repairs);
    f.field("watchdog_fires", r.fault.watchdog_fires);
    f.field("tokens_regenerated", r.fault.tokens_regenerated);
    f.field("frozen_windows", r.fault.frozen_windows);
    o.raw_field("fault", f.str());
  }
  // Same byte-compatibility rule for workloads: legacy Bernoulli runs carry
  // no workload block and serialize identically to pre-workload builds.
  if (r.workload.active()) {
    JsonObject w(indent + 2);
    w.field("kind", r.workload.kind);
    w.field("completed", r.workload.completed);
    w.field("completion_cycle", r.workload.completion_cycle);
    w.field("phases_total", r.workload.phases_total);
    w.field("phases_completed", r.workload.phases_completed);
    w.field("episodes_total", r.workload.episodes_total);
    w.field("episodes_completed", r.workload.episodes_completed);
    w.field("worst_phase_cycles", r.workload.worst_phase_cycles);
    w.field("worst_episode_cycles", r.workload.worst_episode_cycles);
    w.field("packets_injected", r.workload.packets_injected);
    w.field("packets_delivered", r.workload.packets_delivered);
    w.field("packets_dead", r.workload.packets_dead);
    w.field("bytes_delivered", r.workload.bytes_delivered);
    w.field("tenants", r.workload.tenants);
    w.field("sessions_started", r.workload.sessions_started);
    w.field("sessions_completed", r.workload.sessions_completed);
    if (!r.workload.tenant_delivered_bytes.empty()) {
      std::string arr = "[";
      bool first = true;
      for (const std::uint64_t b : r.workload.tenant_delivered_bytes) {
        arr += (first ? "" : ", ") + std::to_string(b);
        first = false;
      }
      arr += "]";
      w.raw_field("tenant_delivered_bytes", arr);
    }
    o.raw_field("workload", w.str());
  }
  // Same byte-compatibility rule for observability: the snapshot block only
  // appears when a run carried a live metrics registry.
  if (!r.metrics.empty()) {
    JsonObject m(indent + 2);
    for (const auto& [name, value] : r.metrics) m.raw_field(name.c_str(), value);
    o.raw_field("obs_metrics", m.str());
  }
  // Monitor verdicts: present only when at least one `monitor.*` check was
  // configured, so monitor-free reports match older builds byte-exactly.
  if (!r.monitors.empty()) {
    JsonObject m(indent + 2);
    m.field("ok", r.monitors_ok());
    m.field("violations", r.monitor_violations);
    JsonObject c(indent + 4);
    for (const auto& [name, verdict] : r.monitors) c.raw_field(name.c_str(), verdict);
    m.raw_field("checks", c.str());
    o.raw_field("obs_monitors", m.str());
  }
  // Telemetry/flight-recorder roll-up: present only when one of the two was
  // configured, so telemetry-free reports match older builds byte-exactly.
  if (r.telemetry.active) {
    JsonObject t(indent + 2);
    t.field("windows", r.telemetry.windows);
    t.field("phase_changes", r.telemetry.phase_changes);
    t.field("final_phase", r.telemetry.final_phase);
    t.field("tm_bytes", r.telemetry.tm_bytes);
    t.field("tm_packets", r.telemetry.tm_packets);
    t.field("tm_flows", r.telemetry.tm_flows);
    t.field("tm_skew", r.telemetry.tm_skew);
    t.field("energy_total_mw_cycles", r.telemetry.energy_total_mw_cycles);
    t.field("energy_laser_mw_cycles", r.telemetry.energy_laser_mw_cycles);
    t.field("energy_serdes_mw_cycles", r.telemetry.energy_serdes_mw_cycles);
    t.field("flight_events", r.telemetry.flight_events);
    t.field("flight_dumps", r.telemetry.flight_dumps);
    o.raw_field("obs_telemetry", t.str());
  }
  // Degradation-controller roll-up: present only when a `degrade.*` policy
  // built a controller, so policy-free reports match older builds
  // byte-exactly (absence of the block reads as "degradation-free run").
  if (r.resilience.active) {
    JsonObject d(indent + 2);
    resilience_fields(d, r.resilience);
    o.raw_field("resilience", d.str());
  }
  return o.str();
}

std::string results_to_json(
    const std::vector<std::pair<std::string, SimResult>>& named) {
  std::ostringstream os;
  os << "{\n  \"results\": [";
  bool first = true;
  for (const auto& [name, r] : named) {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
    JsonObject o(4);
    o.field("name", name);
    o.raw_field("metrics", to_json(r, 4));
    os << o.str();
  }
  os << "\n  ]\n}\n";
  return os.str();
}

void write_results_json(const std::string& path,
                        const std::vector<std::pair<std::string, SimResult>>& named) {
  std::ofstream out(path);
  ERAPID_EXPECT(static_cast<bool>(out), "cannot open JSON report: " + path);
  out << results_to_json(named);
  out.close();
  ERAPID_EXPECT(static_cast<bool>(out), "JSON report write failed: " + path);
}

std::string bench_point_json(const BenchPoint& p) {
  const SimResult& r = *p.result;
  auto o = JsonObject::one_line();
  for (const auto& [name, value] : p.key) {
    std::visit([&o, &name](const auto& v) { o.field(name.c_str(), v); }, value);
  }
  if (r.workload.active()) {
    o.field("completed", r.workload.completed);
    o.field("makespan_cycles", r.end_cycle);
    o.field("worst_phase_cycles", r.workload.worst_phase_cycles);
    o.field("worst_episode_cycles", r.workload.worst_episode_cycles);
  }
  o.field("throughput_xNc", r.accepted_fraction);
  o.field("latency_avg_cycles", r.latency_avg);
  o.field("latency_p99_cycles", r.latency_p99);
  o.field("power_avg_mw", r.power_avg_mw);
  o.field("active_power_avg_mw", r.active_power_avg_mw);
  o.field("energy_per_packet_mw_cycles",
          r.packets_delivered_measured > 0
              ? r.power_avg_mw * static_cast<double>(r.end_cycle) /
                    static_cast<double>(r.packets_delivered_measured)
              : 0.0);
  o.field("drained", r.drained);
  if (!r.monitors.empty()) {
    o.field("monitors_ok", r.monitors_ok());
    o.field("monitor_violations", r.monitor_violations);
  }
  if (r.resilience.active) {
    auto d = JsonObject::one_line();
    resilience_fields(d, r.resilience);
    o.raw_field("resilience", d.str());
  }
  o.field("wall_ms", p.wall_ms);
  return o.str();
}

std::string bench_to_json(const std::string& bench, const std::string& pattern,
                          const std::string& git_rev, const SimOptions& last,
                          const std::vector<BenchPoint>& points) {
  JsonObject doc(0);
  doc.field("schema", "erapid-bench-1");
  doc.field("bench", bench);
  doc.field("pattern", pattern);
  doc.field("git_rev", git_rev);
  doc.field("des_queue", des::queue_kind_name(last.des_queue));
  auto obs = JsonObject::one_line();
  obs.field("enabled", last.obs.enabled);
  obs.field("trace", last.obs.enabled && !last.obs.trace_path.empty());
  obs.field("monitors", last.obs.enabled && last.obs.monitors.any());
  obs.field("telemetry", last.obs.telemetry_on());
  obs.field("flight_recorder", last.obs.flight_recorder_on());
  doc.raw_field("obs", obs.str());
  std::string arr = "[";
  // Aggregate wall time: sum is total serial cost, max is the critical
  // path — what a perfectly parallel campaign of these points would cost.
  double wall_sum = 0.0;
  double wall_max = 0.0;
  for (const auto& p : points) {
    arr += (arr.size() == 1 ? "\n    " : ",\n    ") + bench_point_json(p);
    wall_sum += p.wall_ms;
    wall_max = std::max(wall_max, p.wall_ms);
  }
  doc.raw_field("points", arr + "\n  ]");
  doc.field("wall_ms_sum", wall_sum);
  doc.field("wall_ms_max", wall_max);
  return doc.str() + "\n";
}

void write_bench_json(const std::string& path, const std::string& bench,
                      const std::string& pattern, const std::string& git_rev,
                      const SimOptions& last, const std::vector<BenchPoint>& points) {
  std::ofstream out(path);
  ERAPID_EXPECT(static_cast<bool>(out), "cannot open bench artifact: " + path);
  out << bench_to_json(bench, pattern, git_rev, last, points);
  out.close();
  ERAPID_EXPECT(static_cast<bool>(out), "bench artifact write failed: " + path);
}

}  // namespace erapid::sim
