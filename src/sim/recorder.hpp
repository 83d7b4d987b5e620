// Time-series instrumentation.
//
// The figures in the paper are steady-state summaries; understanding *why*
// a configuration behaves as it does needs the time dimension: when lanes
// moved, how power tracked load, where queues built up. The Recorder
// samples the network at a fixed cadence into the hub's MetricsRegistry
// (one "recorder.*" timeline per column), so the series land in the run's
// metrics snapshot, and mirrors them onto trace counter tracks. Each
// sample also drives the power-cap monitor and the degradation controller.
#pragma once

#include "des/engine.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"

namespace erapid::resilience {
class DegradeController;
}

namespace erapid::sim {

/// Periodic sampler over a Network.
class Recorder {
 public:
  /// Samples every `interval` cycles once started, into `hub`'s timelines
  /// recorder.{power_mw, lanes_lit, delivered, backlog, lane_grants,
  /// level_changes, lanes_failed}. `degrade_ctrl` (null without a
  /// `degrade.*` policy) gets every power sample after the monitor.
  Recorder(des::Engine& engine, Network& network, CycleDelta interval, obs::Hub& hub,
           resilience::DegradeController* degrade_ctrl = nullptr);

  /// Begins sampling (first sample at now + interval).
  void start();

  /// Stops sampling (kept samples remain).
  void stop();

 private:
  void take_sample();

  des::Engine& engine_;
  Network& network_;
  CycleDelta interval_;
  obs::Hub& hub_;
  resilience::DegradeController* degrade_ctrl_;
  bool running_ = false;
  des::EventHandle next_;

  obs::MetricId m_power_ = 0;
  obs::MetricId m_lanes_lit_ = 0;
  obs::MetricId m_delivered_ = 0;
  obs::MetricId m_backlog_ = 0;
  obs::MetricId m_grants_ = 0;
  obs::MetricId m_level_changes_ = 0;
  obs::MetricId m_lanes_failed_ = 0;
};

}  // namespace erapid::sim
