// Observability subsystem tests.
//
// Two layers of guarantees, strongest first:
//
//   1. Inertness: with obs off the simulation result serializes identically
//      to an obs-on run's core fields, and the report carries no
//      "obs_metrics" block (the golden fixture in test_determinism.cpp
//      additionally pins the obs-off report byte-for-byte).
//   2. Determinism: two same-seed traced runs write byte-identical trace
//      files, and a committed golden trace pins the tiny 4-board run's
//      full event stream. Regenerate with ERAPID_REGEN_GOLDEN=1 only when
//      the change is intended.
//
// Plus unit tests for the Args builder, the MetricsRegistry kinds, and the
// trace writer, and a check that a trace lost to a full disk fails the run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"

namespace {

using namespace erapid;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[maybe_unused]] bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

sim::SimOptions base_options() {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.load_fraction = 0.5;
  o.seed = 1;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.drain_limit = 60000;
  return o;
}

// ---- unit: Args builder -----------------------------------------------------

TEST(Args, BuildsDeterministicJsonObject) {
  obs::Args a;
  EXPECT_TRUE(a.empty());
  a.add("board", std::uint64_t{3})
      .add("delta", std::int64_t{-2})
      .add("util", 0.25)
      .add("kind", std::string("dbr"));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.str(), "{\"board\":3,\"delta\":-2,\"util\":0.25,\"kind\":\"dbr\"}");
}

TEST(Args, EscapesStrings) {
  obs::Args a;
  a.add("s", std::string("a\"b\\c"));
  EXPECT_EQ(a.str(), "{\"s\":\"a\\\"b\\\\c\"}");
}

TEST(TraceFormat, ValueFormattingIsStable) {
  EXPECT_EQ(obs::format_trace_value(0.0), "0");
  EXPECT_EQ(obs::format_trace_value(2.0), "2");
  EXPECT_EQ(obs::format_trace_value(0.25), "0.25");
  // Same value, same string — the determinism contract for counters.
  EXPECT_EQ(obs::format_trace_value(1.0 / 3.0), obs::format_trace_value(1.0 / 3.0));
}

// ---- unit: MetricsRegistry --------------------------------------------------

TEST(MetricsRegistry, CounterGaugeSeriesTimeline) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("a.count");
  const auto g = reg.gauge("b.level", 0, 10.0);
  const auto s = reg.series("c.samples");
  const auto t = reg.timeline("d.points");

  reg.add(c, 2);
  reg.add(c);
  EXPECT_EQ(reg.counter_value(c), 3u);

  reg.set_gauge(g, 50, 30.0);
  EXPECT_EQ(reg.gauge_level(g), 30.0);
  // 10 for 50 cycles then 30 for 50 cycles -> average 20.
  EXPECT_DOUBLE_EQ(reg.gauge_average(g, 0, 100), 20.0);

  reg.observe(s, 1.0);
  reg.observe(s, 3.0);
  EXPECT_EQ(reg.series_stats(s).count(), 2u);
  EXPECT_DOUBLE_EQ(reg.series_stats(s).mean(), 2.0);

  reg.record(t, 0, 5.0);
  reg.record(t, 100, 15.0);
  ASSERT_EQ(reg.timeline_points(t).size(), 2u);
  EXPECT_EQ(reg.timeline_points(t)[1].cycle, 100u);
  EXPECT_DOUBLE_EQ(reg.timeline_stats(t).max(), 15.0);
}

TEST(MetricsRegistry, RegistrationIsGetOrCreate) {
  obs::MetricsRegistry reg;
  const auto a = reg.counter("same.name");
  const auto b = reg.counter("same.name");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  obs::MetricsRegistry reg;
  reg.counter("zzz.last");
  reg.counter("aaa.first");
  reg.counter("mmm.middle");
  const auto snap = reg.snapshot(0);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "aaa.first");
  EXPECT_EQ(snap[1].first, "mmm.middle");
  EXPECT_EQ(snap[2].first, "zzz.last");
}

// ---- unit: histogram metric kind --------------------------------------------

TEST(Histogram, BucketMappingIsLog2) {
  // Bucket 0 absorbs [0, 1) plus anything non-finite or negative; bucket i
  // covers [2^(i-1), 2^i); the last bucket absorbs overflow.
  EXPECT_EQ(obs::histogram_bucket_of(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(0.99), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(-5.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket_of(1.99), 1u);
  EXPECT_EQ(obs::histogram_bucket_of(2.0), 2u);
  EXPECT_EQ(obs::histogram_bucket_of(3.99), 2u);
  EXPECT_EQ(obs::histogram_bucket_of(4.0), 3u);
  EXPECT_EQ(obs::histogram_bucket_of(1024.0), 11u);
  EXPECT_EQ(obs::histogram_bucket_of(1.0e300), obs::kHistogramBuckets - 1);
}

TEST(Histogram, ObserveCountsAndQuantiles) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram("lat.hist");
  for (int i = 0; i < 100; ++i) reg.observe(h, 10.0);  // bucket 4: [8, 16)
  reg.observe(h, 1000.0);                              // bucket 10
  EXPECT_EQ(reg.histogram_stats(h).count(), 101u);
  EXPECT_EQ(reg.histogram_bucket_count(h, 4), 100u);
  EXPECT_EQ(reg.histogram_bucket_count(h, 10), 1u);
  EXPECT_EQ(reg.histogram_bucket_count(h, 0), 0u);
  // p50 lies in the dominant bucket; p100-ish is clamped to the observed max.
  const double p50 = reg.histogram_quantile(h, 0.50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 0.0), 10.0);
}

TEST(Histogram, EmptyHistogramIsZero) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram("empty.hist");
  EXPECT_EQ(reg.histogram_stats(h).count(), 0u);
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 0.99), 0.0);
}

TEST(Histogram, SnapshotRendersSparseOrderedBuckets) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram("h.render");
  reg.observe(h, 0.5);   // bucket 0
  reg.observe(h, 12.0);  // bucket 4
  reg.observe(h, 12.0);
  const auto snap = reg.snapshot(0);
  ASSERT_EQ(snap.size(), 1u);
  const std::string& v = snap[0].second;
  EXPECT_NE(v.find("\"count\": 3"), std::string::npos) << v;
  EXPECT_NE(v.find("\"buckets\": [[0, 1], [4, 2]]"), std::string::npos) << v;
  EXPECT_NE(v.find("\"p99\":"), std::string::npos) << v;
}

TEST(Histogram, SameSamplesAnyOrderSameRendering) {
  // Insertion order must not leak into the snapshot (determinism contract).
  obs::MetricsRegistry a, b;
  const auto ha = a.histogram("h");
  const auto hb = b.histogram("h");
  const double samples[] = {3.0, 700.0, 0.2, 3.0, 65.0};
  for (double s : samples) a.observe(ha, s);
  for (int i = 4; i >= 0; --i) b.observe(hb, samples[i]);
  EXPECT_EQ(a.snapshot(0), b.snapshot(0));
}

// ---- unit: trace writer -----------------------------------------------------

TEST(ChromeTraceWriter, EmitsSchemaFooterAndTracks) {
  const auto path = tmp_path("unit_chrome.trace.json");
  {
    obs::ChromeTraceWriter w(path);
    ASSERT_TRUE(w.ok());
    const auto track = w.register_track("unit.track");
    w.complete(track, "span.one", 10, 5, "{\"k\":1}");
    w.instant(track, "mark", 12, "");
    w.counter(track, "level", 15, 2.5);
    w.async_begin(track, "owned", 7, 20, "");
    w.async_end(track, "owned", 7, 30);
    w.close(40);
    w.close(40);  // idempotent
  }
  const auto text = slurp(path);
  EXPECT_NE(text.find(obs::ChromeTraceWriter::kSchema), std::string::npos);
  EXPECT_NE(text.find("\"unit.track\""), std::string::npos);
  EXPECT_NE(text.find("\"span.one\""), std::string::npos);
  EXPECT_NE(text.find("\"end_cycle\":40"), std::string::npos);
  std::remove(path.c_str());
}

// The writer buffers, so a full disk shows only when the file is closed:
// Hub::close must turn that into a contract failure, not a silent loss.
TEST(ChromeTraceWriter, FullDiskFailsTheRunAtClose) {
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.trace_path = "/dev/full";
  EXPECT_THROW((void)sim::Simulation(o).run(), erapid::ModelInvariantError);
}

// ---- integration: inertness -------------------------------------------------

TEST(ObsInert, DisabledRunCarriesNoMetricsBlock) {
  sim::SimOptions o = base_options();
  const auto r = sim::Simulation(o).run();
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(sim::to_json(r).find("obs_metrics"), std::string::npos);
}

TEST(ObsInert, EnabledRunLeavesCoreResultUntouched) {
  sim::SimOptions off = base_options();
  const auto report_off = sim::to_json(sim::Simulation(off).run());

  sim::SimOptions on = base_options();
  on.obs.enabled = true;  // metrics only, no trace file
  auto r = sim::Simulation(on).run();
  EXPECT_FALSE(r.metrics.empty());
  // Core fields must match the obs-off run exactly: strip the snapshot and
  // the reports must be byte-identical.
  r.metrics.clear();
  EXPECT_EQ(sim::to_json(r), report_off);
}

// ---- integration: trace determinism -----------------------------------------

std::string run_traced(const std::string& path, std::uint64_t seed = 1) {
  sim::SimOptions o = base_options();
  o.seed = seed;
  o.obs.enabled = true;
  o.obs.trace_path = path;
  (void)sim::Simulation(o).run();
  const auto text = slurp(path);
  std::remove(path.c_str());
  return text;
}

TEST(ObsDeterminism, SameSeedChromeTracesAreByteIdentical) {
  const auto a = run_traced(tmp_path("det_a.trace.json"));
  const auto b = run_traced(tmp_path("det_b.trace.json"));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(ObsDeterminism, DifferentSeedsDiverge) {
  // Sanity check that the byte-identity above is not vacuous.
  const auto a = run_traced(tmp_path("seed1.trace.json"), 1);
  const auto b = run_traced(tmp_path("seed2.trace.json"), 2);
  EXPECT_NE(a, b);
}

// ---- golden trace fixture ---------------------------------------------------

TEST(GoldenTrace, SmallRunTraceMatchesCommittedFixtureExactly) {
  for (const des::QueueKind kind : test::kQueueKinds) {
    sim::SimOptions o = base_options();
    o.des_queue = kind;
    o.warmup_cycles = 2000;
    o.measure_cycles = 4000;
    o.drain_limit = 20000;
    o.obs.enabled = true;
    o.obs.trace_path = tmp_path("golden_candidate.trace.json");
    o.obs.counter_interval = 1000;
    (void)sim::Simulation(o).run();
    const auto trace = slurp(o.obs.trace_path);
    std::remove(o.obs.trace_path.c_str());
    test::expect_golden(trace, "golden_trace_small.json",
                        std::string("golden trace on des.queue=") + des::queue_kind_name(kind),
                        kind == des::QueueKind::Heap);
  }
}

}  // namespace
