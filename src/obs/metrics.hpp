// MetricsRegistry — named counters, gauges and series with one owner.
//
// Every quantity the simulator measures over time flows through here so
// perf/policy PRs report through a single schema instead of ad-hoc member
// vectors. Five metric kinds:
//
//   counter   monotone u64 (events dispatched, packets re-homed, ...)
//   gauge     piecewise-constant level, time-weighted over simulated time
//             (stats::TimeWeighted): instantaneous power, queue depth.
//   series    per-sample scalar distribution (stats::Streaming): per-lane
//             utilization at harvest, per-window lanes moved.
//   timeline  periodically sampled (cycle, value) points kept in full —
//             what sim::Recorder samples; also summarised as a
//             Streaming distribution.
//   histogram per-sample distribution with percentile queries over fixed
//             log2 buckets (bucket 0 = [0,1), bucket i = [2^(i-1), 2^i)):
//             packet latency, LS window durations, DBR convergence time.
//             The bucket scheme is value-independent, so two runs bucket
//             identical samples identically and the snapshot (count, min,
//             mean, max, p50/p95/p99, sparse buckets) is deterministic.
//
// Registration and snapshot order is name-sorted (std::map index), so the
// JSON snapshot is deterministic regardless of instrumentation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats/streaming.hpp"
#include "stats/time_weighted.hpp"
#include "util/expect.hpp"
#include "util/types.hpp"

namespace erapid::obs {

/// Handle for a registered metric.
using MetricId = std::uint32_t;

/// One point of a timeline metric.
struct TimelinePoint {
  Cycle cycle = 0;
  double value = 0.0;
};

/// Number of log2 buckets of a histogram metric: bucket 0 holds [0, 1),
/// bucket i >= 1 holds [2^(i-1), 2^i); the last bucket absorbs overflow.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index a sample falls into under the fixed log2 scheme.
[[nodiscard]] std::size_t histogram_bucket_of(double sample);

/// Name-indexed metric store (see file comment for the five kinds).
class MetricsRegistry {
 public:
  // ---- registration (get-or-create; kind mismatch on reuse is fatal) ----
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name, Cycle start = 0, double initial = 0.0);
  MetricId series(const std::string& name);
  MetricId timeline(const std::string& name);
  MetricId histogram(const std::string& name);

  // ---- updates ----
  void add(MetricId id, std::uint64_t delta = 1);
  void set_gauge(MetricId id, Cycle now, double level);
  /// Accepts series *and* histogram metrics (same probe macro serves both).
  void observe(MetricId id, double sample);
  void record(MetricId id, Cycle cycle, double value);
  /// Installs a distribution accumulated outside the registry into an
  /// empty series: `samples` becomes its summary. Folding the same samples
  /// observe() would have seen, added in the same order, renders exactly as
  /// if they had been observe()d. Folding into a series that already holds
  /// samples, or into any other kind, fails.
  void fold(MetricId id, const stats::Streaming& samples);

  // ---- reads ----
  [[nodiscard]] std::uint64_t counter_value(MetricId id) const;
  [[nodiscard]] double gauge_level(MetricId id) const;
  [[nodiscard]] double gauge_average(MetricId id, Cycle window_start, Cycle now) const;
  [[nodiscard]] const stats::Streaming& series_stats(MetricId id) const;
  [[nodiscard]] const std::vector<TimelinePoint>& timeline_points(MetricId id) const;
  /// Streaming summary (count/min/mean/max) of a timeline's values.
  [[nodiscard]] const stats::Streaming& timeline_stats(MetricId id) const;
  /// Streaming summary (count/min/mean/max) of a histogram's samples.
  [[nodiscard]] const stats::Streaming& histogram_stats(MetricId id) const;
  /// Samples landed in log2 bucket `bucket` (see histogram_bucket_of).
  [[nodiscard]] std::uint64_t histogram_bucket_count(MetricId id, std::size_t bucket) const;
  /// Value below which fraction `q` in [0,1] of samples fall. Linear
  /// interpolation inside the containing log2 bucket, clamped to the
  /// observed [min, max]; 0 with no samples. Deterministic: depends only
  /// on the multiset of samples, never on insertion order.
  [[nodiscard]] double histogram_quantile(MetricId id, double q) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Every metric as name-sorted (name, rendered JSON value) pairs — what
  /// SimResult carries so sim::report can emit the snapshot with its own
  /// indentation. Values render as:
  ///   counters   -> integer
  ///   gauges     -> {"level": x, "avg": time-weighted avg over [0, now]}
  ///   series     -> {"count": n, "min": ..., "mean": ..., "max": ...}
  ///   timelines  -> {"samples": n, "min": ..., "mean": ..., "max": ...}
  ///   histograms -> {"count": n, "min": ..., "mean": ..., "max": ...,
  ///                  "p50": ..., "p95": ..., "p99": ...,
  ///                  "buckets": [[bucket, count], ...]}  (sparse, ordered)
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> snapshot(Cycle now) const;

 private:
  enum class Kind : std::uint8_t { Counter, Gauge, Series, Timeline, Histogram };

  struct Entry {
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t count = 0;          ///< Counter
    stats::TimeWeighted level;        ///< Gauge
    stats::Streaming samples;         ///< Series + Timeline/Histogram summary
    std::vector<TimelinePoint> points;///< Timeline
    std::vector<std::uint64_t> buckets;///< Histogram (kHistogramBuckets)
  };

  MetricId get_or_create(const std::string& name, Kind kind, Cycle start, double initial);
  [[nodiscard]] const Entry& at(MetricId id, Kind kind) const;
  [[nodiscard]] Entry& at(MetricId id, Kind kind);
  [[nodiscard]] static std::string render(const Entry& e, Cycle now);

  std::vector<Entry> entries_;
  std::map<std::string, MetricId> index_;
};

}  // namespace erapid::obs
