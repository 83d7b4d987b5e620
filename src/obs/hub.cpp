#include "obs/hub.hpp"

#include "util/expect.hpp"

namespace erapid::obs {

Hub::Hub(const ObsConfig& cfg) : cfg_(cfg) {
  ERAPID_EXPECT(cfg_.counter_interval > 0, "obs.counter_interval must be positive");
  if (!cfg_.trace_path.empty()) {
    if (cfg_.trace_format == "chrome") {
      trace_ = std::make_unique<ChromeTraceWriter>(cfg_.trace_path);
    } else if (cfg_.trace_format == "csv") {
      trace_ = std::make_unique<CsvTimelineWriter>(cfg_.trace_path);
    } else {
      ERAPID_EXPECT(false, "unknown obs.trace_format: '" + cfg_.trace_format +
                               "' (chrome | csv)");
    }
    t_engine_ = trace_->register_track(Tracks::kEngine);
    t_reconfig_ = trace_->register_track(Tracks::kReconfig);
    t_lanes_ = trace_->register_track(Tracks::kLanes);
    t_power_ = trace_->register_track(Tracks::kPower);
    t_fault_ = trace_->register_track(Tracks::kFault);
    t_counters_ = trace_->register_track(Tracks::kCounters);
    // The monitors track exists only when a monitor is configured, so
    // monitor-free traces (and the golden fixture) keep their track list.
    if (cfg_.monitors.any()) t_monitors_ = trace_->register_track(Tracks::kMonitors);
    // Same rule for the telemetry track — registered last so existing
    // traces keep their track-id assignment.
    if (cfg_.telemetry_on()) t_telemetry_ = trace_->register_track(Tracks::kTelemetry);
  }
  m_events_ = metrics_.counter("des.events");
  m_queue_depth_ = metrics_.series("des.queue_depth");
  m_events_per_cycle_ = metrics_.series("des.events_per_cycle");
  if (cfg_.monitors.any()) {
    monitors_ = std::make_unique<MonitorSet>(cfg_.monitors, cfg_.monitor_fail_fast,
                                             trace_.get(), t_monitors_, metrics_);
  }
  if (cfg_.flight_recorder_on()) {
    flight_ = std::make_unique<FlightRecorder>(cfg_.flight_recorder_depth,
                                               cfg_.flight_recorder_path);
    // Black-box feeds: every monitor violation and every contract failure
    // triggers a dump of the ring as it stood at the trigger.
    if (monitors_) {
      monitors_->set_violation_hook(
          [this](const char* name, Cycle now, double value, double threshold) {
            Args args;
            args.add("value", value).add("threshold", threshold);
            flight_->record(now, std::string("monitor.") + name, args.str());
            flight_->dump(now, "monitor_violation", name);
          });
    }
    erapid::set_contract_observer([this](const char* kind, const std::string& what) {
      // Contract failures carry no simulated timestamp; the last dispatch
      // cycle the hub profiled is the deterministic stand-in.
      flight_->record(profile_cycle_, std::string("contract.") + kind, "");
      flight_->dump(profile_cycle_, "contract_failure", what);
    });
    contract_observer_installed_ = true;
  }
}

void Hub::init_telemetry(des::Engine& engine, std::uint32_t boards,
                         Telemetry::Sampler sampler) {
  if (!cfg_.telemetry_on()) return;
  ERAPID_REQUIRE(telemetry_ == nullptr, "telemetry plane initialized twice");
  telemetry_ = std::make_unique<Telemetry>(engine, boards, *this, std::move(sampler));
}

Hub::~Hub() { close(profile_cycle_); }

void Hub::close(Cycle now) {
  if (closed_) return;
  closed_ = true;
  if (contract_observer_installed_) {
    // The observer captures `this`; it must not outlive the hub.
    erapid::set_contract_observer({});
    contract_observer_installed_ = false;
  }
  if (events_this_cycle_ > 0) {
    metrics_.observe(m_events_per_cycle_, static_cast<double>(events_this_cycle_));
    events_this_cycle_ = 0;
  }
  if (trace_) trace_->close(now);
  ERAPID_INVARIANT(!contract_observer_installed_,
                   "close() must clear the contract observer");
}

void Hub::on_dispatch_begin(const char* tag, Cycle now) {
  ERAPID_EXPECT(!closed_, "event dispatched after Hub::close()");
  if (trace_ && cfg_.trace_events) {
    trace_->begin(t_engine_, tag != nullptr ? tag : "event", now);
  }
}

void Hub::on_dispatch_end(const char* tag, Cycle now, std::size_t queue_size,
                          std::uint64_t /*executed*/) {
  ERAPID_EXPECT(!closed_, "event dispatched after Hub::close()");
  metrics_.add(m_events_);
  metrics_.observe(m_queue_depth_, static_cast<double>(queue_size));

  const char* label = tag != nullptr ? tag : "event";
  auto it = tag_metrics_.find(label);
  if (it == tag_metrics_.end()) {
    TagMetrics tm;
    tm.count = metrics_.counter(std::string("des.tag.") + label);
    tm.cost = metrics_.histogram(std::string("des.dispatch_cost.") + label);
    it = tag_metrics_.emplace(label, tm).first;
  }
  metrics_.add(it->second.count);
  metrics_.observe(it->second.cost, static_cast<double>(queue_size));

  // Events-per-cycle self-profiling: flush the tally when time advances.
  if (now != profile_cycle_) {
    if (events_this_cycle_ > 0) {
      metrics_.observe(m_events_per_cycle_, static_cast<double>(events_this_cycle_));
    }
    profile_cycle_ = now;
    events_this_cycle_ = 0;
  }
  ++events_this_cycle_;

  if (trace_ && cfg_.trace_events) {
    trace_->end(t_engine_, label, now);
  }
}

}  // namespace erapid::obs
