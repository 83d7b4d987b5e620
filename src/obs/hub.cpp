#include "obs/hub.hpp"

#include <string_view>

#include "util/expect.hpp"

namespace erapid::obs {

Hub::Hub(const ObsConfig& cfg) : cfg_(cfg) {
  ERAPID_EXPECT(cfg_.counter_interval > 0, "obs.counter_interval must be positive");
  if (!cfg_.trace_path.empty()) {
    trace_ = std::make_unique<ChromeTraceWriter>(cfg_.trace_path);
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
                                             trace_.get(), t_monitors_);
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

// No write check here: the destructor may run while an exception unwinds.
Hub::~Hub() { release(profile_cycle_); }

void Hub::close(Cycle now) {
  release(now);
  if (trace_) {
    ERAPID_EXPECT(trace_->ok(), "trace stream failed: " + cfg_.trace_path);
  }
}

void Hub::release(Cycle now) {
  if (closed_) return;
  closed_ = true;
  if (contract_observer_installed_) {
    // The observer captures `this`; it must not outlive the hub.
    erapid::set_contract_observer({});
    contract_observer_installed_ = false;
  }
  if (trace_) trace_->close(now);
  ERAPID_INVARIANT(!contract_observer_installed_,
                   "release() must clear the contract observer");
}

std::vector<std::pair<std::string, std::string>> Hub::snapshot(Cycle now) {
  ERAPID_REQUIRE(!folded_, "Hub::snapshot() called twice");
  folded_ = true;
  // The last profiled cycle's tally is still pending: no later dispatch
  // advanced time to flush it.
  if (events_this_cycle_ > 0) {
    metrics_.observe(m_events_per_cycle_, static_cast<double>(events_this_cycle_));
    events_this_cycle_ = 0;
  }
  metrics_.add(m_events_, events_);
  metrics_.fold(m_queue_depth_, queue_depth_);
  for (const TagMetrics& tm : tag_metrics_) {
    metrics_.add(metrics_.counter("des.tag." + tm.label), tm.count);
  }
  return metrics_.snapshot(now);
}

Hub::TagMetrics& Hub::tag_metrics(const char* tag) {
  for (const auto& [key, slot] : tag_index_) {
    if (key == tag) return tag_metrics_[slot];
  }
  const std::string_view label = tag != nullptr ? tag : "event";
  std::uint32_t slot = 0;
  while (slot < tag_metrics_.size() && tag_metrics_[slot].label != label) ++slot;
  if (slot == tag_metrics_.size()) tag_metrics_.emplace_back().label = label;
  tag_index_.emplace_back(tag, slot);
  return tag_metrics_[slot];
}

void Hub::on_dispatch_begin(const char* tag, Cycle now) {
  ERAPID_EXPECT(!closed_, "event dispatched after Hub::close()");
  if (trace_ && cfg_.trace_events) {
    trace_->begin(t_engine_, tag != nullptr ? tag : "event", now);
  }
}

void Hub::on_dispatch_end(const char* tag, Cycle now, std::size_t queue_size,
                          std::uint64_t /*executed*/) {
  ERAPID_EXPECT(!closed_ && !folded_, "event dispatched after Hub::snapshot() or close()");
  ++events_;
  queue_depth_.add(static_cast<double>(queue_size));
  ++tag_metrics(tag).count;

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
    trace_->end(t_engine_, tag != nullptr ? tag : "event", now);
  }
}

}  // namespace erapid::obs
