// Zero-cost-when-off probe macros.
//
// Instrumented model code emits through these instead of calling the Hub
// directly, so observability has one off switch: hub == nullptr. The
// Simulation builds a hub only with obs.enabled=true, and components
// built without one get nullptr. Off costs one branch, no allocation, no
// I/O, and the argument expressions are not evaluated.
//
// Trace-only probes additionally check that a trace file is being written.
// The `hub` argument is always an `obs::Hub*` (possibly null).
#pragma once

#include "obs/hub.hpp"

/// Runs `call` against the hub's ChromeTraceWriter when tracing is live.
#define ERAPID_OBS_DETAIL_SINK(hub, call)                          \
  do {                                                             \
    if ((hub) != nullptr) {                    \
      if (auto* erapid_obs_sink_ = (hub)->trace()) {               \
        erapid_obs_sink_->call;                                    \
      }                                                            \
    }                                                              \
  } while (false)

/// Runs `call` against the hub's MetricsRegistry when obs is on.
#define ERAPID_OBS_DETAIL_METRICS(hub, call)                       \
  do {                                                             \
    if ((hub) != nullptr) {                    \
      (hub)->metrics().call;                                       \
    }                                                              \
  } while (false)

/// Closed span of simulated time [ts, ts+dur] on `track`.
#define ERAPID_TRACE_SPAN(hub, track, name, ts, dur, args) \
  ERAPID_OBS_DETAIL_SINK(hub, complete((track), (name), (ts), (dur), (args)))

/// Async span pair (overlapping lifecycles keyed by id).
#define ERAPID_TRACE_ASYNC_BEGIN(hub, track, name, id, ts, args) \
  ERAPID_OBS_DETAIL_SINK(hub, async_begin((track), (name), (id), (ts), (args)))
#define ERAPID_TRACE_ASYNC_END(hub, track, name, id, ts) \
  ERAPID_OBS_DETAIL_SINK(hub, async_end((track), (name), (id), (ts)))

/// Instantaneous mark.
#define ERAPID_TRACE_INSTANT(hub, track, name, ts, args) \
  ERAPID_OBS_DETAIL_SINK(hub, instant((track), (name), (ts), (args)))

/// Counter-track sample (trace only; pair with ERAPID_METRIC_* for the
/// registry side).
#define ERAPID_TRACE_COUNTER(hub, track, name, ts, value) \
  ERAPID_OBS_DETAIL_SINK(hub, counter((track), (name), (ts), (value)))

/// Monotone counter increment in the metrics registry. `id_expr` is a
/// MetricId obtained at registration time.
#define ERAPID_COUNTER(hub, id_expr, delta) \
  ERAPID_OBS_DETAIL_METRICS(hub, add((id_expr), (delta)))

/// Gauge level change in the metrics registry.
#define ERAPID_GAUGE_SET(hub, id_expr, now, level) \
  ERAPID_OBS_DETAIL_METRICS(hub, set_gauge((id_expr), (now), (level)))

/// Distribution sample in the metrics registry.
#define ERAPID_OBSERVE(hub, id_expr, sample) \
  ERAPID_OBS_DETAIL_METRICS(hub, observe((id_expr), (sample)))
