#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace.hpp"

namespace erapid::obs {

MetricId MetricsRegistry::get_or_create(const std::string& name, Kind kind, Cycle start,
                                        double initial) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    ERAPID_EXPECT(entries_[it->second].kind == kind,
                  "metric '" + name + "' re-registered with a different kind");
    return it->second;
  }
  Entry e;
  e.name = name;
  e.kind = kind;
  e.level = stats::TimeWeighted(start, initial);
  entries_.push_back(std::move(e));
  const auto id = static_cast<MetricId>(entries_.size() - 1);
  index_.emplace(name, id);
  return id;
}

MetricId MetricsRegistry::counter(const std::string& name) {
  return get_or_create(name, Kind::Counter, 0, 0.0);
}

MetricId MetricsRegistry::gauge(const std::string& name, Cycle start, double initial) {
  return get_or_create(name, Kind::Gauge, start, initial);
}

MetricId MetricsRegistry::series(const std::string& name) {
  return get_or_create(name, Kind::Series, 0, 0.0);
}

MetricId MetricsRegistry::timeline(const std::string& name) {
  return get_or_create(name, Kind::Timeline, 0, 0.0);
}

MetricId MetricsRegistry::histogram(const std::string& name) {
  ERAPID_REQUIRE(!name.empty(), "metric name must be non-empty");
  const auto id = get_or_create(name, Kind::Histogram, 0, 0.0);
  entries_[id].buckets.resize(kHistogramBuckets, 0);
  return id;
}

std::size_t histogram_bucket_of(double sample) {
  // The scheme is pure arithmetic on the sample value — no run-dependent
  // state — so equal samples land in equal buckets across runs. Negative
  // and sub-1 samples share bucket 0; ilogb on finite positives >= 1 gives
  // floor(log2(sample)) exactly.
  if (!(sample >= 1.0)) return 0;
  const int lg = std::ilogb(sample);
  const auto bucket = static_cast<std::size_t>(lg) + 1;
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

const MetricsRegistry::Entry& MetricsRegistry::at(MetricId id, Kind kind) const {
  ERAPID_REQUIRE(id < entries_.size(), "unregistered metric id=" << id);
  ERAPID_REQUIRE(entries_[id].kind == kind,
                 "metric '" << entries_[id].name << "' used as the wrong kind");
  return entries_[id];
}

MetricsRegistry::Entry& MetricsRegistry::at(MetricId id, Kind kind) {
  return const_cast<Entry&>(static_cast<const MetricsRegistry&>(*this).at(id, kind));
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  at(id, Kind::Counter).count += delta;
}

void MetricsRegistry::set_gauge(MetricId id, Cycle now, double level) {
  at(id, Kind::Gauge).level.set(now, level);
}

void MetricsRegistry::observe(MetricId id, double sample) {
  ERAPID_REQUIRE(id < entries_.size(), "unregistered metric id=" << id);
  Entry& e = entries_[id];
  ERAPID_REQUIRE(e.kind == Kind::Series || e.kind == Kind::Histogram,
                 "metric '" << e.name << "' used as the wrong kind");
  e.samples.add(sample);
  if (e.kind == Kind::Histogram) ++e.buckets[histogram_bucket_of(sample)];
}

void MetricsRegistry::fold(MetricId id, const stats::Streaming& samples) {
  Entry& e = at(id, Kind::Series);
  ERAPID_REQUIRE(e.samples.count() == 0,
                 "metric '" << e.name << "' already holds " << e.samples.count()
                            << " samples; fold needs an empty one");
  e.samples = samples;
}

void MetricsRegistry::record(MetricId id, Cycle cycle, double value) {
  Entry& e = at(id, Kind::Timeline);
  ERAPID_EXPECT(e.points.empty() || cycle >= e.points.back().cycle,
                "timeline samples must be recorded in time order");
  e.points.push_back({cycle, value});
  e.samples.add(value);
}

std::uint64_t MetricsRegistry::counter_value(MetricId id) const {
  return at(id, Kind::Counter).count;
}

double MetricsRegistry::gauge_level(MetricId id) const {
  return at(id, Kind::Gauge).level.level();
}

double MetricsRegistry::gauge_average(MetricId id, Cycle window_start, Cycle now) const {
  return at(id, Kind::Gauge).level.average(window_start, now);
}

const stats::Streaming& MetricsRegistry::series_stats(MetricId id) const {
  return at(id, Kind::Series).samples;
}

const std::vector<TimelinePoint>& MetricsRegistry::timeline_points(MetricId id) const {
  return at(id, Kind::Timeline).points;
}

const stats::Streaming& MetricsRegistry::timeline_stats(MetricId id) const {
  return at(id, Kind::Timeline).samples;
}

const stats::Streaming& MetricsRegistry::histogram_stats(MetricId id) const {
  return at(id, Kind::Histogram).samples;
}

std::uint64_t MetricsRegistry::histogram_bucket_count(MetricId id, std::size_t bucket) const {
  const Entry& e = at(id, Kind::Histogram);
  ERAPID_REQUIRE(bucket < e.buckets.size(), "histogram bucket " << bucket << " out of range");
  return e.buckets[bucket];
}

namespace {

/// Quantile over log2 buckets: walk to the bucket containing the q-th
/// sample, interpolate linearly inside it, clamp to observed [min, max].
double bucket_quantile(const std::vector<std::uint64_t>& buckets, const stats::Streaming& s,
                       double q) {
  if (s.count() == 0) return 0.0;
  ERAPID_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q=" << q << " outside [0,1]");
  const double target = q * static_cast<double>(s.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const auto next = seen + buckets[i];
    if (static_cast<double>(next) >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
      const double v = lo + (hi - lo) * frac;
      return std::min(std::max(v, s.min()), s.max());
    }
    seen = next;
  }
  return s.max();
}

}  // namespace

double MetricsRegistry::histogram_quantile(MetricId id, double q) const {
  const Entry& e = at(id, Kind::Histogram);
  return bucket_quantile(e.buckets, e.samples, q);
}

namespace {

std::string distribution_json(const char* count_key, const stats::Streaming& s) {
  std::ostringstream os;
  os << "{\"" << count_key << "\": " << s.count()
     << ", \"min\": " << format_trace_value(s.min())
     << ", \"mean\": " << format_trace_value(s.mean())
     << ", \"max\": " << format_trace_value(s.max()) << '}';
  return os.str();
}

}  // namespace

std::string MetricsRegistry::render(const Entry& e, Cycle now) {
  switch (e.kind) {
    case Kind::Counter:
      return std::to_string(e.count);
    case Kind::Gauge:
      return "{\"level\": " + format_trace_value(e.level.level()) +
             ", \"avg\": " + format_trace_value(e.level.average(0, now)) + "}";
    case Kind::Series:
      return distribution_json("count", e.samples);
    case Kind::Timeline:
      return distribution_json("samples", e.samples);
    case Kind::Histogram: {
      std::ostringstream os;
      os << "{\"count\": " << e.samples.count()
         << ", \"min\": " << format_trace_value(e.samples.min())
         << ", \"mean\": " << format_trace_value(e.samples.mean())
         << ", \"max\": " << format_trace_value(e.samples.max())
         << ", \"p50\": " << format_trace_value(bucket_quantile(e.buckets, e.samples, 0.50))
         << ", \"p95\": " << format_trace_value(bucket_quantile(e.buckets, e.samples, 0.95))
         << ", \"p99\": " << format_trace_value(bucket_quantile(e.buckets, e.samples, 0.99))
         << ", \"buckets\": [";
      bool first = true;
      for (std::size_t i = 0; i < e.buckets.size(); ++i) {
        if (e.buckets[i] == 0) continue;
        os << (first ? "" : ", ") << '[' << i << ", " << e.buckets[i] << ']';
        first = false;
      }
      os << "]}";
      return os.str();
    }
  }
  ERAPID_UNREACHABLE("unmodeled metric kind " << static_cast<int>(e.kind));
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::snapshot(Cycle now) const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(index_.size());
  for (const auto& [name, id] : index_) out.emplace_back(name, render(entries_[id], now));
  return out;
}

}  // namespace erapid::obs
