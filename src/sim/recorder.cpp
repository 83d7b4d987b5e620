#include "sim/recorder.hpp"

#include "resilience/controller.hpp"
#include "util/expect.hpp"

namespace erapid::sim {

Recorder::Recorder(des::Engine& engine, Network& network, CycleDelta interval, obs::Hub& hub,
                   resilience::DegradeController* degrade_ctrl)
    : engine_(engine),
      network_(network),
      interval_(interval),
      hub_(hub),
      degrade_ctrl_(degrade_ctrl) {
  ERAPID_EXPECT(interval_ > 0, "sampling interval must be positive");
  auto& reg = hub_.metrics();
  m_power_ = reg.timeline("recorder.power_mw");
  m_lanes_lit_ = reg.timeline("recorder.lanes_lit");
  m_delivered_ = reg.timeline("recorder.delivered");
  m_backlog_ = reg.timeline("recorder.backlog");
  m_grants_ = reg.timeline("recorder.lane_grants");
  m_level_changes_ = reg.timeline("recorder.level_changes");
  m_lanes_failed_ = reg.timeline("recorder.lanes_failed");
}

void Recorder::start() {
  if (running_) return;
  running_ = true;
  next_ = engine_.schedule(interval_, [this] { take_sample(); }, "recorder.sample");
}

void Recorder::stop() {
  running_ = false;
  next_.cancel();
}

void Recorder::take_sample() {
  if (!running_) return;
  const Cycle now = engine_.now();
  const double power = network_.meter().instantaneous_mw().value();
  const auto lanes_lit = network_.lane_map().lit_count();
  const auto delivered = network_.packets_delivered();
  const auto backlog = network_.total_source_backlog();
  const auto& counters = network_.reconfig_manager().counters();
  const auto lanes_failed = network_.lane_map().failed_count();

  auto& reg = hub_.metrics();
  reg.record(m_power_, now, power);
  reg.record(m_lanes_lit_, now, static_cast<double>(lanes_lit));
  reg.record(m_delivered_, now, static_cast<double>(delivered));
  reg.record(m_backlog_, now, static_cast<double>(backlog));
  reg.record(m_grants_, now, static_cast<double>(counters.lane_grants));
  reg.record(m_level_changes_, now, static_cast<double>(counters.level_changes));
  reg.record(m_lanes_failed_, now, static_cast<double>(lanes_failed));

  // The power-cap monitor watches the envelope at this same cadence: each
  // sample is one deterministic check against monitor.power_cap_mw. The
  // degradation controller sees the same sample right after — a breach may
  // step the brownout ladder down (via the monitor's actuation hook), and
  // sustained headroom steps it back up.
  if (auto* mon = hub_.monitors()) mon->sample_power(now, power);
  if (degrade_ctrl_ != nullptr) degrade_ctrl_->on_power_sample(now, power);

  // Mirror the sampled state onto trace counter tracks: this is the
  // at-a-glance dashboard row of the Perfetto view.
  if (auto* sink = hub_.trace()) {
    sink->counter(hub_.track_counters(), "lanes_lit", now, static_cast<double>(lanes_lit));
    sink->counter(hub_.track_counters(), "source_backlog", now, static_cast<double>(backlog));
    sink->counter(hub_.track_counters(), "delivered", now, static_cast<double>(delivered));
  }

  next_ = engine_.schedule(interval_, [this] { take_sample(); }, "recorder.sample");
}

}  // namespace erapid::sim
