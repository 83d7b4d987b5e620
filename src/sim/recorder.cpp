#include "sim/recorder.hpp"

#include "obs/probe.hpp"
#include "util/csv.hpp"
#include "util/expect.hpp"

namespace erapid::sim {

Recorder::Recorder(des::Engine& engine, Network& network, CycleDelta interval, obs::Hub* hub)
    : engine_(engine), network_(network), interval_(interval), hub_(hub) {
  ERAPID_EXPECT(interval_ > 0, "sampling interval must be positive");
  auto& reg = registry();
  m_power_ = reg.timeline("recorder.power_mw");
  m_lanes_lit_ = reg.timeline("recorder.lanes_lit");
  m_delivered_ = reg.timeline("recorder.delivered");
  m_backlog_ = reg.timeline("recorder.backlog");
  m_grants_ = reg.timeline("recorder.lane_grants");
  m_level_changes_ = reg.timeline("recorder.level_changes");
  m_lanes_failed_ = reg.timeline("recorder.lanes_failed");
}

obs::MetricsRegistry& Recorder::registry() {
  if (hub_ != nullptr && hub_->enabled()) return hub_->metrics();
  return own_;
}

const obs::MetricsRegistry& Recorder::registry() const {
  return const_cast<Recorder*>(this)->registry();
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

  auto& reg = registry();
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
  if (hub_ != nullptr) {
    if (auto* mon = hub_->monitors()) mon->sample_power(now, power);
    if (auto* ctrl = network_.degrade_controller()) ctrl->on_power_sample(now, power);
  }

  // Mirror the sampled state onto trace counter tracks: this is the
  // at-a-glance dashboard row of the Perfetto view.
  ERAPID_TRACE_COUNTER(hub_, hub_->track_counters(), "lanes_lit", now,
                       static_cast<double>(lanes_lit));
  ERAPID_TRACE_COUNTER(hub_, hub_->track_counters(), "source_backlog", now,
                       static_cast<double>(backlog));
  ERAPID_TRACE_COUNTER(hub_, hub_->track_counters(), "delivered", now,
                       static_cast<double>(delivered));

  next_ = engine_.schedule(interval_, [this] { take_sample(); }, "recorder.sample");
}

std::size_t Recorder::sample_count() const {
  return registry().timeline_points(m_power_).size();
}

std::vector<Sample> Recorder::samples() const {
  const auto& reg = registry();
  const auto& power = reg.timeline_points(m_power_);
  const auto& lit = reg.timeline_points(m_lanes_lit_);
  const auto& delivered = reg.timeline_points(m_delivered_);
  const auto& backlog = reg.timeline_points(m_backlog_);
  const auto& grants = reg.timeline_points(m_grants_);
  const auto& levels = reg.timeline_points(m_level_changes_);
  const auto& failed = reg.timeline_points(m_lanes_failed_);

  std::vector<Sample> out;
  out.reserve(power.size());
  for (std::size_t i = 0; i < power.size(); ++i) {
    Sample s;
    s.cycle = power[i].cycle;
    s.power_mw = power[i].value;
    s.lanes_lit = static_cast<std::uint32_t>(lit[i].value);
    s.delivered = static_cast<std::uint64_t>(delivered[i].value);
    s.source_backlog = static_cast<std::size_t>(backlog[i].value);
    s.lane_grants = static_cast<std::uint64_t>(grants[i].value);
    s.level_changes = static_cast<std::uint64_t>(levels[i].value);
    s.lanes_failed = static_cast<std::uint32_t>(failed[i].value);
    out.push_back(s);
  }
  return out;
}

void Recorder::write_csv(const std::string& path) const {
  util::CsvWriter csv(path, {"cycle", "power_mw", "lanes_lit", "delivered",
                             "backlog", "grants", "dvs_changes"});
  ERAPID_EXPECT(csv.ok(), "cannot open recorder CSV: " + path);
  for (const auto& s : samples()) {
    csv.row_values(s.cycle, s.power_mw, s.lanes_lit, s.delivered, s.source_backlog,
                   s.lane_grants, s.level_changes);
  }
}

double Recorder::sampled_avg_power() const {
  const auto& stats = registry().timeline_stats(m_power_);
  return stats.count() == 0 ? 0.0 : stats.mean();
}

double Recorder::peak_power() const {
  const auto& stats = registry().timeline_stats(m_power_);
  return stats.count() == 0 ? 0.0 : stats.max();
}

}  // namespace erapid::sim
