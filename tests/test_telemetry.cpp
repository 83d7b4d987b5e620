// Windowed telemetry plane tests.
//
// Layered like test_obs.cpp, strongest guarantee first:
//
//   1. Inertness: with telemetry off (the default) a run schedules no
//      telemetry event and its report carries no "obs_telemetry" block —
//      the golden fixtures in test_determinism.cpp additionally pin the
//      off-path reports byte-for-byte.
//   2. Determinism: two same-seed telemetry runs write byte-identical
//      erapid-telemetry-1 JSONL, across runs AND across the heap|calendar
//      event-queue implementations; a committed golden stream pins the
//      tiny 4-board run (regenerate with ERAPID_REGEN_GOLDEN=1 only when
//      the change is intended — see tests_support.hpp policy).
//   3. Attribution: the report's energy totals are read from the
//      EnergyMeter, whose per-board integrals sum to its network total
//      (test_power.cpp pins the meter's per-board arithmetic in isolation).
//
// Plus unit tests for the CUSUM phase detector, the traffic-matrix
// estimator's window/EWMA/top-K semantics, and the flight recorder's ring
// and dump trigger.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/phase_detect.hpp"
#include "obs/tm_estimator.hpp"
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

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

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

sim::SimOptions telemetry_options(const std::string& path) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;
  o.obs.telemetry_path = path;
  o.obs.telemetry_window = 2000;
  return o;
}

// ---- unit: phase detector (CUSUM) -------------------------------------------

obs::PhaseDetectorConfig detector_config() {
  obs::PhaseDetectorConfig cfg;
  cfg.alpha = 0.2;
  cfg.slack = 0.05;
  cfg.threshold = 0.25;
  return cfg;
}

TEST(PhaseDetector, FirstSampleSeedsWithoutFiring) {
  obs::PhaseDetector d(detector_config());
  EXPECT_FALSE(d.update(0.6));
  EXPECT_EQ(d.phase_id(), 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.6);
  EXPECT_EQ(d.samples(), 1u);
}

TEST(PhaseDetector, SteadySeriesNeverFires) {
  obs::PhaseDetector d(detector_config());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(d.update(0.5));
  EXPECT_EQ(d.changes(), 0u);
  EXPECT_DOUBLE_EQ(d.cusum_up(), 0.0);
  EXPECT_DOUBLE_EQ(d.cusum_down(), 0.0);
}

TEST(PhaseDetector, SlackAbsorbsSmallJitter) {
  obs::PhaseDetector d(detector_config());
  // +-0.04 around 0.5 stays inside the 0.05 dead-band: the CUSUM sides
  // never accumulate, however long the series runs.
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(d.update(i % 2 == 0 ? 0.54 : 0.46));
  EXPECT_EQ(d.changes(), 0u);
}

TEST(PhaseDetector, UpwardLevelShiftFiresExactlyOnce) {
  obs::PhaseDetector d(detector_config());
  for (int i = 0; i < 10; ++i) d.update(0.2);
  std::uint64_t fires = 0;
  for (int i = 0; i < 20; ++i) fires += d.update(0.8) ? 1u : 0u;
  // One level shift, one change-point: the restart rule re-seeds the mean
  // at the new operating point, so the shift cannot fire repeatedly.
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(d.phase_id(), 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.8);
}

TEST(PhaseDetector, DownwardShiftFiresToo) {
  obs::PhaseDetector d(detector_config());
  for (int i = 0; i < 10; ++i) d.update(0.8);
  std::uint64_t fires = 0;
  for (int i = 0; i < 20; ++i) fires += d.update(0.1) ? 1u : 0u;
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(d.phase_id(), 1u);
}

TEST(PhaseDetector, AccumulatesSlowDriftAcrossSamples) {
  // A sustained +0.15 level shift accumulates past the threshold even
  // though no single deviation does. The EWMA adapts toward the new level
  // between samples (0.5 -> 0.53 -> 0.554 -> ...), shrinking each residual,
  // so the CUSUM crosses 0.25 on the fifth shifted sample rather than the
  // naive ceil(0.25 / 0.10) = 3rd.
  obs::PhaseDetector d(detector_config());
  d.update(0.5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(d.update(0.65)) << "fired early at shifted sample " << i + 1;
  }
  EXPECT_TRUE(d.update(0.65));
  EXPECT_EQ(d.phase_id(), 1u);
}

// ---- unit: traffic-matrix estimator -----------------------------------------

TEST(TmEstimator, AccumulatesAndRanksFlows) {
  obs::TmEstimator tm(4, 0.5);
  tm.on_packet(0, 1, 100);
  tm.on_packet(0, 1, 100);
  tm.on_packet(2, 3, 300);
  tm.on_packet(1, 0, 200);

  EXPECT_EQ(tm.window_bytes(), 700u);
  EXPECT_EQ(tm.window_packets(), 4u);
  EXPECT_EQ(tm.flows(), 3u);

  const auto top = tm.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].src, 2u);
  EXPECT_EQ(top[0].dst, 3u);
  EXPECT_EQ(top[0].bytes, 300u);
  EXPECT_EQ(top[1].bytes, 200u);
}

TEST(TmEstimator, TopKTieBreaksBySrcDstAscending) {
  obs::TmEstimator tm(4, 0.5);
  tm.on_packet(3, 0, 100);
  tm.on_packet(1, 2, 100);
  tm.on_packet(1, 0, 100);
  const auto top = tm.top_k(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].src, 1u);
  EXPECT_EQ(top[0].dst, 0u);
  EXPECT_EQ(top[1].src, 1u);
  EXPECT_EQ(top[1].dst, 2u);
  EXPECT_EQ(top[2].src, 3u);
}

TEST(TmEstimator, RollFoldsEwmaAndClearsWindow) {
  obs::TmEstimator tm(2, 0.5);
  tm.on_packet(0, 1, 400);
  tm.roll_window();

  EXPECT_EQ(tm.window_bytes(), 0u);
  EXPECT_EQ(tm.total_bytes(), 400u);
  EXPECT_EQ(tm.windows(), 1u);
  auto snap = tm.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes, 200.0);  // 0.5 * 400

  // An idle window decays the flow toward zero instead of freezing it.
  tm.roll_window();
  snap = tm.snapshot();
  EXPECT_DOUBLE_EQ(snap[0].ewma_bytes, 100.0);  // 0.5 * 0 + 0.5 * 200
}

TEST(TmEstimator, SkewAndHotspotScalars) {
  obs::TmEstimator tm(4, 0.5);
  // Uniform two flows: skew = max/mean = 1; hottest dst holds half.
  tm.on_packet(0, 1, 100);
  tm.on_packet(2, 3, 100);
  EXPECT_DOUBLE_EQ(tm.window_skew(), 1.0);
  EXPECT_DOUBLE_EQ(tm.window_hotspot(), 0.5);

  // Pile onto one flow: 400/dst1 vs 100/dst3 -> skew 1.6, hotspot 0.8.
  tm.on_packet(0, 1, 300);
  EXPECT_DOUBLE_EQ(tm.window_skew(), 1.6);
  EXPECT_DOUBLE_EQ(tm.window_hotspot(), 0.8);
}

TEST(TmEstimator, EmptyWindowScalarsAreZero) {
  obs::TmEstimator tm(4, 0.5);
  EXPECT_DOUBLE_EQ(tm.window_skew(), 0.0);
  EXPECT_DOUBLE_EQ(tm.window_hotspot(), 0.0);
  EXPECT_TRUE(tm.top_k(8).empty());
}

// ---- unit: flight recorder --------------------------------------------------

TEST(FlightRecorder, RingKeepsTheLastDepthEvents) {
  const std::string path = tmp_path("fr_ring.json");
  obs::FlightRecorder fr(3, path);
  for (int i = 0; i < 5; ++i) {
    fr.record(static_cast<Cycle>(100 * i), "evt" + std::to_string(i), "");
  }
  EXPECT_EQ(fr.size(), 3u);
  EXPECT_EQ(fr.events_recorded(), 5u);

  fr.dump(500, "monitor_violation", "power_cap");
  EXPECT_EQ(fr.dumps(), 1u);
  const auto text = slurp(path);
  // Oldest-first: evt0/evt1 were evicted, evt2 leads the dump.
  EXPECT_NE(text.find("\"schema\": \"erapid-flight-recorder-1\""), std::string::npos);
  EXPECT_EQ(text.find("evt1"), std::string::npos);
  EXPECT_LT(text.find("evt2"), text.find("evt4"));
  EXPECT_NE(text.find("\"reason\": \"monitor_violation\""), std::string::npos);
  std::remove(path.c_str());
}

// The dump is buffered: a full disk shows only once it is flushed, and
// that must fail loudly rather than leave no black box behind.
TEST(FlightRecorder, DumpToFullDiskThrows) {
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  obs::FlightRecorder fr(4, "/dev/full");
  fr.record(100, "evt", "");
  EXPECT_THROW(fr.dump(200, "monitor_violation", "power_cap"), erapid::ModelInvariantError);
}

// ---- integration: inertness -------------------------------------------------

TEST(TelemetryInert, DefaultRunCarriesNoTelemetryBlock) {
  const auto report = sim::to_json(sim::Simulation(base_options()).run());
  EXPECT_EQ(report.find("obs_telemetry"), std::string::npos);
}

TEST(TelemetryInert, ObsWithoutTelemetryPathSchedulesNothing) {
  sim::SimOptions o = base_options();
  o.obs.enabled = true;  // metrics on, telemetry still off
  const auto r = sim::Simulation(o).run();
  EXPECT_FALSE(r.telemetry.active);
  EXPECT_EQ(sim::to_json(r).find("obs_telemetry"), std::string::npos);
}

// ---- integration: determinism -----------------------------------------------

std::string run_telemetry(const std::string& path, std::uint64_t seed = 1) {
  sim::SimOptions o = telemetry_options(path);
  o.seed = seed;
  const auto r = sim::Simulation(o).run();
  EXPECT_TRUE(r.telemetry.active);
  EXPECT_GT(r.telemetry.windows, 0u);
  const auto text = slurp(path);
  std::remove(path.c_str());
  return text;
}

TEST(TelemetryDeterminism, SameSeedStreamsAreByteIdentical) {
  const auto a = run_telemetry(tmp_path("tel_a.jsonl"));
  const auto b = run_telemetry(tmp_path("tel_b.jsonl"));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("\"schema\": \"erapid-telemetry-1\""), std::string::npos);
}

TEST(TelemetryDeterminism, DifferentSeedsDiverge) {
  const auto a = run_telemetry(tmp_path("tel_s1.jsonl"), 1);
  const auto b = run_telemetry(tmp_path("tel_s2.jsonl"), 2);
  EXPECT_NE(a, b);
}

// ---- integration: report & summary ------------------------------------------

TEST(TelemetryReport, RunCarriesGatedSummaryBlock) {
  const std::string path = tmp_path("tel_report.jsonl");
  const auto r = sim::Simulation(telemetry_options(path)).run();
  std::remove(path.c_str());

  ASSERT_TRUE(r.telemetry.active);
  EXPECT_GT(r.telemetry.windows, 0u);
  EXPECT_GT(r.telemetry.tm_bytes, 0u);
  EXPECT_GT(r.telemetry.tm_flows, 0u);
  EXPECT_GT(r.telemetry.energy_total_mw_cycles, 0.0);
  // Only lanes are metered: attribution is laser + serdes, nothing else,
  // and the split sums back to the per-board totals.
  EXPECT_GT(r.telemetry.energy_laser_mw_cycles, 0.0);
  EXPECT_GT(r.telemetry.energy_serdes_mw_cycles, 0.0);
  EXPECT_NEAR(r.telemetry.energy_laser_mw_cycles + r.telemetry.energy_serdes_mw_cycles,
              r.telemetry.energy_total_mw_cycles,
              1e-6 * r.telemetry.energy_total_mw_cycles);

  const auto report = sim::to_json(r);
  EXPECT_NE(report.find("\"obs_telemetry\""), std::string::npos);
  EXPECT_NE(report.find("\"windows\""), std::string::npos);
}

TEST(EnergyAttribution, ReportTotalsComeFromTheMeter) {
  const std::string path = tmp_path("tel_energy.jsonl");
  sim::Simulation sim(telemetry_options(path));
  const auto r = sim.run();
  std::remove(path.c_str());

  const Cycle end = sim.engine().now();
  const auto& meter = sim.network().meter();
  ASSERT_TRUE(r.telemetry.active);
  EXPECT_EQ(r.telemetry.energy_total_mw_cycles, meter.energy_mw_cycles(end).value());
  double boards = 0.0;
  for (std::uint32_t b = 0; b < meter.boards(); ++b) {
    boards += meter.board_energy_mw_cycles(BoardId{b}, end).value();
  }
  EXPECT_EQ(meter.boards(), sim.options().system.num_boards_total());
  EXPECT_NEAR(boards, r.telemetry.energy_total_mw_cycles,
              1e-9 * r.telemetry.energy_total_mw_cycles);
}

// ---- integration: flight-recorder trigger -----------------------------------

TEST(FlightRecorderTrigger, MonitorViolationDumpsTheRing) {
  const std::string tel = tmp_path("tel_fr.jsonl");
  const std::string dump = tmp_path("fr_dump.json");
  std::remove(dump.c_str());

  sim::SimOptions o = telemetry_options(tel);
  o.obs.flight_recorder_depth = 64;
  o.obs.flight_recorder_path = dump;
  o.obs.monitors.power_cap_mw = 0.001;  // impossible cap: violates immediately
  const auto r = sim::Simulation(o).run();
  std::remove(tel.c_str());

  EXPECT_GT(r.monitor_violations, 0u);
  EXPECT_GT(r.telemetry.flight_events, 0u);
  EXPECT_GT(r.telemetry.flight_dumps, 0u);
  ASSERT_TRUE(file_exists(dump));
  const auto text = slurp(dump);
  EXPECT_NE(text.find("\"schema\": \"erapid-flight-recorder-1\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\": \"monitor_violation\""), std::string::npos);
  std::remove(dump.c_str());
}

TEST(FlightRecorderTrigger, CleanRunWritesNoDump) {
  const std::string tel = tmp_path("tel_clean.jsonl");
  const std::string dump = tmp_path("fr_none.json");
  std::remove(dump.c_str());

  sim::SimOptions o = telemetry_options(tel);
  o.obs.flight_recorder_depth = 64;
  o.obs.flight_recorder_path = dump;
  const auto r = sim::Simulation(o).run();
  std::remove(tel.c_str());

  EXPECT_GT(r.telemetry.flight_events, 0u);  // the ring fills regardless
  EXPECT_EQ(r.telemetry.flight_dumps, 0u);   // but nothing triggered a dump
  EXPECT_FALSE(file_exists(dump));
}

// ---- golden telemetry stream ------------------------------------------------

TEST(GoldenTelemetry, SmallRunStreamMatchesCommittedFixtureExactly) {
  // HeapAndCalendarQueuesWriteTheSameStream covers the heap queue.
  test::expect_golden(run_telemetry(tmp_path("tel_golden.jsonl")),
                      "golden_telemetry_small.jsonl", "telemetry golden");
}

}  // namespace
