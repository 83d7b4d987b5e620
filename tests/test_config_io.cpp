// Tests for the INI parser, SimOptions config round-trip, the recorder
// time-series sampler, and the JSON result export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/options_io.hpp"
#include "sim/recorder.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"
#include "util/ini.hpp"

namespace {

using erapid::sim::load_options;
using erapid::sim::options_from_ini;
using erapid::sim::options_to_ini;
using erapid::sim::SimOptions;
using erapid::util::Ini;

// ---- Ini ------------------------------------------------------------------

TEST(Ini, ParsesSectionsAndKeys) {
  const auto ini = Ini::parse_string("[system]\nboards = 8\n\n[workload]\nload = 0.5\n");
  EXPECT_EQ(ini.get("system.boards"), "8");
  EXPECT_EQ(ini.get("workload.load"), "0.5");
  EXPECT_FALSE(ini.has("system.load"));
}

TEST(Ini, CommentsAndWhitespaceIgnored) {
  const auto ini = Ini::parse_string("; top\n# also\n[ s ]\n  k =  v  \n");
  EXPECT_EQ(ini.get("s.k"), "v");
}

TEST(Ini, SectionlessKeysWork) {
  const auto ini = Ini::parse_string("alpha = 3\n");
  EXPECT_EQ(ini.get("alpha"), "3");
}

// Values stay raw text; flag spellings are interpreted by options_io.
TEST(Ini, BoolParsing) {
  const auto ini = Ini::parse_string("[a]\nx = true\ny = 0\nz = yes\n");
  EXPECT_EQ(ini.get("a.x"), "true");
  EXPECT_EQ(ini.get("a.y"), "0");
  EXPECT_EQ(ini.get("a.z"), "yes");
  EXPECT_EQ(ini.get("a.missing"), std::nullopt);
}

TEST(Ini, MalformedLinesThrow) {
  EXPECT_THROW(Ini::parse_string("[unterminated\n"), erapid::ModelInvariantError);
  EXPECT_THROW(Ini::parse_string("no equals sign\n"), erapid::ModelInvariantError);
  EXPECT_THROW(Ini::parse_string("= novalue\n"), erapid::ModelInvariantError);
}

TEST(Ini, SaveParsesBack) {
  Ini ini;
  ini.set("b.two", "2");
  ini.set("a.one", "1");
  ini.set("plain", "x");
  std::ostringstream os;
  ini.save(os);
  const auto back = Ini::parse_string(os.str());
  EXPECT_EQ(back.get("a.one"), "1");
  EXPECT_EQ(back.get("b.two"), "2");
  EXPECT_EQ(back.get("plain"), "x");
  EXPECT_EQ(back.size(), 3u);
}

TEST(Ini, MissingFileThrows) {
  EXPECT_THROW(Ini::load_file("/nonexistent/x.ini"), erapid::ModelInvariantError);
}

// ---- options round-trip ------------------------------------------------------

// Determinism contract (DESIGN.md §7): every options struct must be fully
// initialized by default construction — an indeterminate member would make
// two "identical" runs diverge. Default-construct each one, read every
// scalar back (uninitialized reads are UB and trip MSan/valgrind in the
// sanitizer CI job), and check the documented defaults.
TEST(OptionsIo, EveryOptionsStructDefaultConstructsInitialized) {
  const erapid::topology::SystemConfig sys;
  EXPECT_EQ(sys.boards, 8u);
  EXPECT_EQ(sys.nodes_per_board, 8u);
  EXPECT_DOUBLE_EQ(sys.router_clock_ghz, 0.4);
  EXPECT_EQ(sys.channel_width_bits, 16u);
  EXPECT_EQ(sys.flit_bits, 64u);
  EXPECT_EQ(sys.packet_flits, 8u);
  EXPECT_EQ(sys.num_vcs, 4u);
  EXPECT_EQ(sys.vc_buffer_flits, 8u);
  EXPECT_EQ(sys.credit_delay, 1u);
  EXPECT_EQ(sys.tx_queue_packets, 16u);
  EXPECT_EQ(sys.rx_queue_packets, 8u);
  EXPECT_EQ(sys.fiber_delay_cycles, 8u);
  EXPECT_EQ(sys.tx_feed_cycles_per_flit, 1u);
  EXPECT_NO_THROW(sys.validate());

  const erapid::reconfig::DpmPolicy dpm;
  EXPECT_DOUBLE_EQ(dpm.l_min, 0.7);
  EXPECT_DOUBLE_EQ(dpm.l_max, 0.9);
  EXPECT_DOUBLE_EQ(dpm.b_max, 0.3);
  EXPECT_TRUE(dpm.require_buffer_for_upscale);
  EXPECT_TRUE(dpm.shutdown_idle);

  const erapid::reconfig::DbrPolicy dbr;
  EXPECT_DOUBLE_EQ(dbr.b_min, 0.0);
  EXPECT_DOUBLE_EQ(dbr.b_max, 0.3);
  EXPECT_EQ(dbr.max_lanes_per_flow, 0u);

  const erapid::reconfig::DpmStrategyParams params;
  EXPECT_EQ(params.hysteresis_windows, 2u);
  EXPECT_DOUBLE_EQ(params.ewma_alpha, 0.5);

  const erapid::reconfig::ReconfigConfig rc;
  EXPECT_EQ(rc.window, 2000u);
  EXPECT_EQ(rc.ring_hop_cycles, 16u);
  EXPECT_EQ(rc.lc_hop_cycles, 4u);
  EXPECT_EQ(rc.mode.name, "NP-NB");
  EXPECT_EQ(rc.grant_level, erapid::power::PowerLevel::High);
  EXPECT_EQ(rc.dpm_strategy, erapid::reconfig::DpmStrategyKind::Threshold);
  EXPECT_EQ(rc.ctrl_retry_limit, 3u);

  const erapid::power::LinkPowerModel pw;
  EXPECT_DOUBLE_EQ(pw.power_mw(erapid::power::PowerLevel::Off).value(), 0.0);
  EXPECT_DOUBLE_EQ(pw.power_mw(erapid::power::PowerLevel::High).value(), 43.03);
  EXPECT_EQ(pw.voltage_transition_cycles(), 65u);
  EXPECT_EQ(pw.freq_relock_cycles(), 12u);

  const erapid::fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.ctrl_drop_prob, 0.0);

  const SimOptions def;
  EXPECT_EQ(def.pattern, erapid::traffic::PatternKind::Uniform);
  EXPECT_DOUBLE_EQ(def.hotspot_fraction, 0.2);
  EXPECT_EQ(def.hotspot_node, 0u);
  EXPECT_DOUBLE_EQ(def.load_fraction, 0.5);
  EXPECT_EQ(def.seed, 1u);
  EXPECT_EQ(def.warmup_cycles, 20000u);
  EXPECT_EQ(def.measure_cycles, 30000u);
  EXPECT_EQ(def.drain_limit, 150000u);
}

// Serialize → parse → serialize must be a fixed point: any field dropped or
// renamed by one direction of the round-trip shows up as INI-text drift.
TEST(OptionsIo, SerializeParseSerializeIsIdempotent) {
  SimOptions o;
  o.system.boards = 4;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  o.reconfig.dpm_strategy = erapid::reconfig::DpmStrategyKind::Hysteresis;
  o.fault = erapid::fault::FaultPlan::parse_events("lane_fail@5000:d2:w1");

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
}

// Same fixed point with the survivability section populated: every
// degrade.* key must serialize, parse back, and serialize again to the
// exact same text. The section only appears when a policy is set.
TEST(OptionsIo, DegradeKeysSurviveSerializeParseSerialize) {
  SimOptions o;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  o.obs.enabled = true;
  o.obs.monitors.power_cap_mw = 250.0;
  o.obs.monitors.throughput_floor = 0.4;
  o.degrade.power_cap = erapid::resilience::ResponsePolicy::Shed;
  o.degrade.throughput_floor = erapid::resilience::ResponsePolicy::Record;
  o.degrade.cooldown_cycles = 1500;
  o.degrade.recover_margin = 0.75;
  o.degrade.recover_cycles = 6000;
  o.degrade.shed_step = 3;
  o.degrade.max_shed_fraction = 0.25;

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("[degrade]"), std::string::npos);

  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.degrade.power_cap, o.degrade.power_cap);
  EXPECT_EQ(back.degrade.throughput_floor, o.degrade.throughput_floor);
  EXPECT_EQ(back.degrade.cooldown_cycles, 1500u);
  EXPECT_EQ(back.degrade.recover_margin, 0.75);
  EXPECT_EQ(back.degrade.recover_cycles, 6000u);
  EXPECT_EQ(back.degrade.shed_step, 3u);
  EXPECT_EQ(back.degrade.max_shed_fraction, 0.25);
}

TEST(OptionsIo, NoDegradePolicyMeansNoDegradeSection) {
  // The degrade section is serialized only when a policy is configured —
  // a policy-free options object keeps its INI byte-identical to one
  // produced before the section existed.
  const auto text = [] {
    std::ostringstream os;
    options_to_ini(SimOptions{}).save(os);
    return os.str();
  }();
  EXPECT_EQ(text.find("[degrade]"), std::string::npos);
  EXPECT_EQ(text.find("degrade."), std::string::npos);
}

TEST(OptionsIo, UnknownKeyThrows) {
  // A typo, and the retired event-calendar selector.
  for (const char* text : {"[system]\nbords = 8\n", "[des]\nqueue = heap\n"}) {
    EXPECT_THROW(options_from_ini(Ini::parse_string(text)), erapid::ModelInvariantError)
        << text;
  }
}

TEST(OptionsIo, UnknownObsOrMonitorKeyThrows) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_intervl = 100\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[monitor]\npower_cap = 100\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntrace_format = chrome\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, NonPositiveCounterIntervalRejectedAtParseTime) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_interval = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_interval = -5\n")),
               erapid::ModelInvariantError);
  const auto ok = options_from_ini(Ini::parse_string("[obs]\ncounter_interval = 250\n"));
  EXPECT_EQ(ok.obs.counter_interval, 250u);
}

TEST(OptionsIo, MonitorKeysSurviveRoundTrip) {
  SimOptions o;
  o.obs.monitors.power_cap_mw = 2500.5;
  o.obs.monitors.throughput_floor = 0.35;
  o.obs.monitors.p99_latency_ceiling = 900.0;
  o.obs.monitors.quiescence_deadline = 1200;
  o.obs.monitor_fail_fast = true;
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_DOUBLE_EQ(back.obs.monitors.power_cap_mw, 2500.5);
  EXPECT_DOUBLE_EQ(back.obs.monitors.throughput_floor, 0.35);
  EXPECT_DOUBLE_EQ(back.obs.monitors.p99_latency_ceiling, 900.0);
  EXPECT_EQ(back.obs.monitors.quiescence_deadline, 1200u);
  EXPECT_TRUE(back.obs.monitor_fail_fast);
  EXPECT_TRUE(back.obs.monitors.any());
}

TEST(OptionsIo, MonitorKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[monitor]\npower_cap_mw = 3000\nquiescence_deadline = 800\n"
      "[obs]\nmonitor_fail_fast = true\n"));
  EXPECT_DOUBLE_EQ(o.obs.monitors.power_cap_mw, 3000.0);
  EXPECT_EQ(o.obs.monitors.quiescence_deadline, 800u);
  EXPECT_DOUBLE_EQ(o.obs.monitors.throughput_floor, 0.0);  // stays disabled
  EXPECT_TRUE(o.obs.monitor_fail_fast);
}

TEST(OptionsIo, NegativeMonitorThresholdsThrow) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[monitor]\npower_cap_mw = -1\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nquiescence_deadline = -10\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, DefaultMonitorsAreAllDisabled) {
  const SimOptions o;
  EXPECT_FALSE(o.obs.monitors.any());
  EXPECT_FALSE(o.obs.monitor_fail_fast);
}

TEST(OptionsIo, TelemetryKeysSurviveRoundTrip) {
  SimOptions o;
  o.obs.enabled = true;
  o.obs.telemetry_path = "run.telemetry.jsonl";
  o.obs.telemetry_window = 1500;
  o.obs.flight_recorder_depth = 256;
  o.obs.flight_recorder_path = "blackbox.json";
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.obs.telemetry_path, "run.telemetry.jsonl");
  EXPECT_EQ(back.obs.telemetry_window, 1500u);
  EXPECT_EQ(back.obs.flight_recorder_depth, 256u);
  EXPECT_EQ(back.obs.flight_recorder_path, "blackbox.json");
  EXPECT_TRUE(back.obs.telemetry_on());
  EXPECT_TRUE(back.obs.flight_recorder_on());
}

TEST(OptionsIo, TelemetryKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[obs]\nenabled = true\ntelemetry = t.jsonl\ntelemetry_window = 800\n"
      "flight_recorder_depth = 32\nflight_recorder = fr.json\n"));
  EXPECT_EQ(o.obs.telemetry_path, "t.jsonl");
  EXPECT_EQ(o.obs.telemetry_window, 800u);
  EXPECT_EQ(o.obs.flight_recorder_depth, 32u);
  EXPECT_EQ(o.obs.flight_recorder_path, "fr.json");
  EXPECT_TRUE(o.obs.telemetry_on());
}

TEST(OptionsIo, InvalidTelemetryKeysThrow) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntelemetry_window = 0\n")),
               erapid::ModelInvariantError);
  // The traffic-matrix and phase-detector tuning is fixed in the telemetry
  // plane: even a valid value for one of those names is an unknown key.
  for (const char* fixed : {"telemetry_top_k = 8", "telemetry_ewma_alpha = 0.3",
                            "telemetry_phase_alpha = 0.2", "telemetry_phase_slack = 0.05",
                            "telemetry_phase_threshold = 0.25"}) {
    EXPECT_THROW(options_from_ini(Ini::parse_string(std::string("[obs]\n") + fixed + "\n")),
                 erapid::ModelInvariantError)
        << fixed;
  }
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[obs]\nflight_recorder_depth = -2\n")),
      erapid::ModelInvariantError);
  // A misspelt telemetry key is rejected like any other unknown key.
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntelemetry_windw = 100\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, DefaultTelemetryIsOff) {
  const SimOptions o;
  EXPECT_FALSE(o.obs.telemetry_on());
  EXPECT_FALSE(o.obs.flight_recorder_on());
}

TEST(OptionsIo, BadModeThrows) {
  const auto ini = Ini::parse_string("[reconfig]\nmode = FULL-POWER\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

TEST(OptionsIo, BadPatternThrows) {
  const auto ini = Ini::parse_string("[workload]\npattern = zigzag\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

TEST(OptionsIo, ThresholdOverridesApplyOnTopOfMode) {
  const auto ini = Ini::parse_string("[reconfig]\nmode = P-B\nl_max = 0.8\n");
  const auto o = options_from_ini(ini);
  EXPECT_DOUBLE_EQ(o.reconfig.mode.dpm.l_max, 0.8);     // overridden
  EXPECT_DOUBLE_EQ(o.reconfig.mode.dpm.l_min, 0.7);     // P-B default kept
}

TEST(OptionsIo, FaultPlanSurvivesRoundTrip) {
  SimOptions o;
  o.fault = erapid::fault::FaultPlan::parse_events(
      "lane_fail@5000:d2:w1 laser_degrade@8000:d3:w2:low:4000 "
      "ctrl_drop@6000:ring:b1:n2 ctrl_drop@7000:chain:b0");
  o.fault.ctrl_drop_prob = 0.125;
  o.fault.seed = 77;
  o.reconfig.ctrl_retry_limit = 5;

  const auto back = options_from_ini(options_to_ini(o));
  ASSERT_EQ(back.fault.events.size(), 4u);
  EXPECT_EQ(back.fault.events, o.fault.events);
  EXPECT_EQ(back.fault.format_events(), o.fault.format_events());
  EXPECT_DOUBLE_EQ(back.fault.ctrl_drop_prob, 0.125);
  EXPECT_EQ(back.fault.seed, 77u);
  EXPECT_EQ(back.reconfig.ctrl_retry_limit, 5u);
}

TEST(OptionsIo, FaultKeysParseFromIniText) {
  const auto ini = Ini::parse_string(
      "[fault]\nevents = lane_fail@100:d1:w1\nctrl_drop_prob = 0.01\nseed = 3\n"
      "[reconfig]\nctrl_retry_limit = 2\n");
  const auto o = options_from_ini(ini);
  ASSERT_EQ(o.fault.events.size(), 1u);
  EXPECT_EQ(o.fault.events[0].kind, erapid::fault::FaultKind::LaneFail);
  EXPECT_DOUBLE_EQ(o.fault.ctrl_drop_prob, 0.01);
  EXPECT_EQ(o.fault.seed, 3u);
  EXPECT_EQ(o.reconfig.ctrl_retry_limit, 2u);
  EXPECT_FALSE(o.fault.empty());

  // Defaults: no fault section at all means an empty (inert) plan.
  const auto clean = options_from_ini(Ini::parse_string(""));
  EXPECT_TRUE(clean.fault.empty());
}

TEST(OptionsIo, SelfHealingKeysSurviveRoundTrip) {
  SimOptions o;
  o.fault = erapid::fault::FaultPlan::parse_events(
      "lane_fail@5000:d2:w1:r9000 bit_error@4500:d2:w2:p0.0005:6000 "
      "rc_crash@7000:b2:r11000");
  o.system.arq_retry_limit = 7;
  o.system.arq_backoff_cycles = 64;
  o.system.arq_nak_cycles = 12;
  o.reconfig.rc_watchdog_cycles = 256;
  o.obs.monitors.max_recovery_cycles = 9000;

  const auto back = options_from_ini(options_to_ini(o));
  ASSERT_EQ(back.fault.events.size(), 3u);
  EXPECT_EQ(back.fault.events, o.fault.events);
  EXPECT_EQ(back.fault.format_events(), o.fault.format_events());
  EXPECT_EQ(back.system.arq_retry_limit, 7u);
  EXPECT_EQ(back.system.arq_backoff_cycles, 64u);
  EXPECT_EQ(back.system.arq_nak_cycles, 12u);
  EXPECT_EQ(back.reconfig.rc_watchdog_cycles, 256u);
  EXPECT_EQ(back.obs.monitors.max_recovery_cycles, 9000u);
  EXPECT_TRUE(back.obs.monitors.any());

  // The serialize → parse → serialize fixed point holds for the new keys.
  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(back).save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(OptionsIo, SelfHealingKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[link]\narq_retry_limit = 2\narq_backoff_cycles = 16\narq_nak_cycles = 4\n"
      "[reconfig]\nrc_watchdog_cycles = 96\n"
      "[monitor]\nmax_recovery_cycles = 12000\n"
      "[fault]\nevents = lane_fail@100:d1:w1:r300\n"));
  EXPECT_EQ(o.system.arq_retry_limit, 2u);
  EXPECT_EQ(o.system.arq_backoff_cycles, 16u);
  EXPECT_EQ(o.system.arq_nak_cycles, 4u);
  EXPECT_EQ(o.reconfig.rc_watchdog_cycles, 96u);
  EXPECT_EQ(o.obs.monitors.max_recovery_cycles, 12000u);
  ASSERT_EQ(o.fault.events.size(), 1u);
  EXPECT_EQ(o.fault.events[0].repair_at, 300u);

  EXPECT_THROW(options_from_ini(Ini::parse_string("[link]\narq_retrylimit = 2\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nmax_recovery_cycles = -1\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, MalformedFaultEventsThrow) {
  const auto ini = Ini::parse_string("[fault]\nevents = lane_fail@abc:d1:w1\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

// ---- workload keys -----------------------------------------------------------

TEST(OptionsIo, WorkloadKeysSurviveRoundTrip) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::AllReduce;
  o.workload.episodes = 5;
  o.workload.volume_packets = 32;
  o.workload.phase_rate = 0.7;
  o.workload.gap_cycles = 512;
  o.workload.horizon_cycles = 90000;
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.workload, o.workload);

  SimOptions t;
  t.workload.kind = erapid::workload::WorkloadKind::Tenants;
  t.workload.tenants = 7;
  t.workload.tenant_load = 0.15;
  t.workload.tenant_mix = {erapid::traffic::PatternKind::Uniform,
                           erapid::traffic::PatternKind::Transpose,
                           erapid::traffic::PatternKind::Hotspot};
  t.workload.session_cycles = 2500;
  t.workload.session_gap_mean = 900;
  const auto tback = options_from_ini(options_to_ini(t));
  EXPECT_EQ(tback.workload, t.workload);
}

TEST(OptionsIo, WorkloadPhasesGrammarSurvivesRoundTrip) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::Phases;
  o.workload.phases =
      erapid::workload::parse_phase_specs("transpose:32:0.8:512,uniform:4,bitrev:8:0.5");
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.workload.phases, o.workload.phases);

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(OptionsIo, WorkloadSerializeParseSerializeIsIdempotent) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::Beff;
  o.workload.phase_rate = 0.65;
  o.obs.monitors.workload_deadline = 40000;
  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("workload_deadline"), std::string::npos);
}

TEST(OptionsIo, UnknownWorkloadKeyOrKindThrows) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nknd = allreduce\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nkind = ringreduce\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\ntenant_mixx = uniform\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, WorkloadCrossFieldValidationRejectsBadConfigs) {
  // phases without kind = phases (and vice versa).
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[workload]\nphases = uniform:4\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nkind = phases\n")),
               erapid::ModelInvariantError);
  // trace_file is exclusive to kind = trace.
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[workload]\nkind = trace\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = allreduce\ntrace_file = /tmp/x.trace\n")),
               erapid::ModelInvariantError);
  // Range checks.
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = allreduce\nphase_rate = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = tenants\ntenant_load = 1.5\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = tenants\ntenants = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nepisodes = 0\n")),
               erapid::ModelInvariantError);
  // Monitor deadline must be non-negative.
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nworkload_deadline = -1\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, WorkloadKindNamesRoundTripThroughParser) {
  const char* names[] = {"bernoulli", "allreduce", "alltoall",     "phases", "ptrans",
                         "fft",       "randomaccess", "beff", "tenants"};
  for (const char* name : names) {
    const auto kind = erapid::workload::parse_kind(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(erapid::workload::kind_name(*kind), name);
  }
  EXPECT_FALSE(erapid::workload::parse_kind("stencil").has_value());
}

// ---- the key table -------------------------------------------------------------

// Renders a member back to text so one table row can name any member type.
// Doubles use the shortest exact form, so equal text means equal bits.
std::string str(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}
std::string str(bool v) { return v ? "true" : "false"; }
std::string str(std::uint32_t v) { return std::to_string(v); }
std::string str(std::uint64_t v) { return std::to_string(v); }
std::string str(std::string_view v) { return std::string(v); }
std::string str(const erapid::reconfig::NetworkMode& m) { return std::string(m.name); }
std::string str(erapid::reconfig::DpmStrategyKind k) { return str(erapid::reconfig::to_string(k)); }
std::string str(erapid::traffic::PatternKind k) { return str(erapid::traffic::pattern_name(k)); }
std::string str(erapid::workload::WorkloadKind k) { return str(erapid::workload::kind_name(k)); }
std::string str(const std::vector<erapid::workload::PhaseSpec>& p) {
  return erapid::workload::format_phase_specs(p);
}
std::string str(const std::vector<erapid::traffic::PatternKind>& mix) {
  return erapid::workload::format_pattern_mix(mix);
}
std::string str(const std::vector<erapid::fault::FaultEvent>& events) {
  erapid::fault::FaultPlan plan;
  plan.events = events;
  return plan.format_events();
}
std::string str(const std::optional<erapid::resilience::ResponsePolicy>& p) {
  return p ? erapid::resilience::policy_name(*p) : "unset";
}

enum class Codec { Integer, Real, Flag, Choice, Path, Policy };

// One row per config key: its codec, a non-default value, the member that
// value must land in, and the other keys it needs to pass cross-field
// validation.
struct KeyCase {
  const char* key;
  Codec codec;
  const char* text;
  std::string (*member)(const SimOptions&);
  const char* context = "";
};

#define MEMBER(field) [](const SimOptions& o) { return str(o.field); }

const KeyCase kKeyCases[] = {
    {"system.boards", Codec::Integer, "4", MEMBER(system.boards)},
    {"system.nodes_per_board", Codec::Integer, "4", MEMBER(system.nodes_per_board)},
    {"system.channel_width_bits", Codec::Integer, "32", MEMBER(system.channel_width_bits)},
    {"system.flit_bits", Codec::Integer, "128", MEMBER(system.flit_bits)},
    {"system.packet_flits", Codec::Integer, "4", MEMBER(system.packet_flits)},
    {"system.num_vcs", Codec::Integer, "2", MEMBER(system.num_vcs)},
    {"system.vc_buffer_flits", Codec::Integer, "6", MEMBER(system.vc_buffer_flits)},
    {"system.credit_delay", Codec::Integer, "2", MEMBER(system.credit_delay)},
    {"system.tx_queue_packets", Codec::Integer, "12", MEMBER(system.tx_queue_packets)},
    {"system.rx_queue_packets", Codec::Integer, "6", MEMBER(system.rx_queue_packets)},
    {"system.fiber_delay_cycles", Codec::Integer, "10", MEMBER(system.fiber_delay_cycles)},
    {"system.tx_feed_cycles_per_flit", Codec::Integer, "2",
     MEMBER(system.tx_feed_cycles_per_flit)},
    {"reconfig.mode", Codec::Choice, "P-B", MEMBER(reconfig.mode)},
    {"reconfig.window", Codec::Integer, "4000", MEMBER(reconfig.window)},
    {"reconfig.ring_hop_cycles", Codec::Integer, "20", MEMBER(reconfig.ring_hop_cycles)},
    {"reconfig.lc_hop_cycles", Codec::Integer, "5", MEMBER(reconfig.lc_hop_cycles)},
    {"reconfig.dpm_strategy", Codec::Choice, "ewma", MEMBER(reconfig.dpm_strategy)},
    {"reconfig.hysteresis_windows", Codec::Integer, "3",
     MEMBER(reconfig.dpm_params.hysteresis_windows)},
    {"reconfig.ewma_alpha", Codec::Real, "0.25", MEMBER(reconfig.dpm_params.ewma_alpha)},
    {"reconfig.l_min", Codec::Real, "0.6", MEMBER(reconfig.mode.dpm.l_min)},
    {"reconfig.l_max", Codec::Real, "0.85", MEMBER(reconfig.mode.dpm.l_max)},
    {"reconfig.b_max", Codec::Real, "0.35", MEMBER(reconfig.mode.dpm.b_max)},
    {"reconfig.dbr_b_min", Codec::Real, "0.05", MEMBER(reconfig.mode.dbr.b_min)},
    {"reconfig.dbr_b_max", Codec::Real, "0.4", MEMBER(reconfig.mode.dbr.b_max)},
    {"reconfig.max_lanes_per_flow", Codec::Integer, "3",
     MEMBER(reconfig.mode.dbr.max_lanes_per_flow)},
    {"reconfig.shutdown_idle", Codec::Flag, "false", MEMBER(reconfig.mode.dpm.shutdown_idle)},
    {"reconfig.ctrl_retry_limit", Codec::Integer, "5", MEMBER(reconfig.ctrl_retry_limit)},
    {"reconfig.rc_watchdog_cycles", Codec::Integer, "256", MEMBER(reconfig.rc_watchdog_cycles)},
    {"link.arq_retry_limit", Codec::Integer, "7", MEMBER(system.arq_retry_limit)},
    {"link.arq_backoff_cycles", Codec::Integer, "64", MEMBER(system.arq_backoff_cycles)},
    {"link.arq_nak_cycles", Codec::Integer, "12", MEMBER(system.arq_nak_cycles)},
    {"fault.events", Codec::Choice,
     "lane_fail@5000:d2:w1:r9000 laser_degrade@8000:d3:w2:low:4000 ctrl_drop@6000:ring:b1:n2",
     MEMBER(fault.events)},
    {"fault.ctrl_drop_prob", Codec::Real, "0.125", MEMBER(fault.ctrl_drop_prob)},
    {"fault.seed", Codec::Integer, "77", MEMBER(fault.seed)},
    {"workload.pattern", Codec::Choice, "hotspot", MEMBER(pattern)},
    {"workload.hotspot_fraction", Codec::Real, "0.35", MEMBER(hotspot_fraction)},
    {"workload.hotspot_node", Codec::Integer, "3", MEMBER(hotspot_node)},
    {"workload.load", Codec::Real, "0.65", MEMBER(load_fraction)},
    {"workload.seed", Codec::Integer, "99", MEMBER(seed)},
    {"workload.warmup_cycles", Codec::Integer, "1000", MEMBER(warmup_cycles)},
    {"workload.measure_cycles", Codec::Integer, "2000", MEMBER(measure_cycles)},
    {"workload.drain_limit", Codec::Integer, "9000", MEMBER(drain_limit)},
    {"workload.kind", Codec::Choice, "phases", MEMBER(workload.kind),
     "[workload]\nphases = uniform:4\n"},
    {"workload.episodes", Codec::Integer, "3", MEMBER(workload.episodes)},
    {"workload.volume_packets", Codec::Integer, "32", MEMBER(workload.volume_packets)},
    {"workload.phase_rate", Codec::Real, "0.7", MEMBER(workload.phase_rate)},
    {"workload.gap_cycles", Codec::Integer, "512", MEMBER(workload.gap_cycles)},
    {"workload.phases", Codec::Choice, "transpose:32:0.8:512,uniform:4,bitrev:8:0.5",
     MEMBER(workload.phases),
     "[workload]\nkind = phases\n"},
    {"workload.tenants", Codec::Integer, "7", MEMBER(workload.tenants)},
    {"workload.tenant_load", Codec::Real, "0.15", MEMBER(workload.tenant_load)},
    {"workload.tenant_mix", Codec::Choice, "uniform,transpose", MEMBER(workload.tenant_mix)},
    {"workload.session_cycles", Codec::Integer, "2500", MEMBER(workload.session_cycles)},
    {"workload.session_gap_mean", Codec::Integer, "900", MEMBER(workload.session_gap_mean)},
    {"workload.horizon_cycles", Codec::Integer, "90000", MEMBER(workload.horizon_cycles)},
    {"workload.trace_file", Codec::Path, "app.trace", MEMBER(workload.trace_file),
     "[workload]\nkind = trace\n"},
    {"obs.enabled", Codec::Flag, "true", MEMBER(obs.enabled)},
    {"obs.trace", Codec::Path, "run.trace.json", MEMBER(obs.trace_path)},
    {"obs.counter_interval", Codec::Integer, "250", MEMBER(obs.counter_interval)},
    {"obs.trace_events", Codec::Flag, "true", MEMBER(obs.trace_events)},
    {"obs.monitor_fail_fast", Codec::Flag, "true", MEMBER(obs.monitor_fail_fast)},
    {"obs.telemetry", Codec::Path, "run.telemetry.jsonl", MEMBER(obs.telemetry_path)},
    {"obs.telemetry_window", Codec::Integer, "1500", MEMBER(obs.telemetry_window)},
    {"obs.flight_recorder_depth", Codec::Integer, "256", MEMBER(obs.flight_recorder_depth)},
    {"obs.flight_recorder", Codec::Path, "blackbox.json", MEMBER(obs.flight_recorder_path)},
    {"monitor.power_cap_mw", Codec::Real, "2500.5", MEMBER(obs.monitors.power_cap_mw)},
    {"monitor.throughput_floor", Codec::Real, "0.35", MEMBER(obs.monitors.throughput_floor)},
    {"monitor.p99_latency_ceiling", Codec::Real, "900",
     MEMBER(obs.monitors.p99_latency_ceiling)},
    {"monitor.quiescence_deadline", Codec::Integer, "1200",
     MEMBER(obs.monitors.quiescence_deadline)},
    {"monitor.max_recovery_cycles", Codec::Integer, "9000",
     MEMBER(obs.monitors.max_recovery_cycles)},
    {"monitor.workload_deadline", Codec::Integer, "40000", MEMBER(obs.monitors.workload_deadline)},
    {"degrade.power_cap", Codec::Policy, "shed", MEMBER(degrade.power_cap),
     "[obs]\nenabled = true\n[reconfig]\nmode = P-B\n[monitor]\npower_cap_mw = 100\n"},
    {"degrade.throughput_floor", Codec::Policy, "record", MEMBER(degrade.throughput_floor),
     "[obs]\nenabled = true\n[monitor]\nthroughput_floor = 0.4\n"},
    {"degrade.p99_ceiling", Codec::Policy, "abort", MEMBER(degrade.p99_ceiling),
     "[obs]\nenabled = true\n[monitor]\np99_latency_ceiling = 900\n"},
    {"degrade.recovery_deadline", Codec::Policy, "record", MEMBER(degrade.recovery_deadline),
     "[obs]\nenabled = true\n[monitor]\nmax_recovery_cycles = 9000\n"},
    {"degrade.cooldown_cycles", Codec::Integer, "1500", MEMBER(degrade.cooldown_cycles)},
    {"degrade.recover_margin", Codec::Real, "0.75", MEMBER(degrade.recover_margin)},
    {"degrade.recover_cycles", Codec::Integer, "6000", MEMBER(degrade.recover_cycles)},
    {"degrade.shed_step", Codec::Integer, "3", MEMBER(degrade.shed_step)},
    {"degrade.max_shed_fraction", Codec::Real, "0.25", MEMBER(degrade.max_shed_fraction)},
};

#undef MEMBER

// ---- INI goldens -------------------------------------------------------------

std::string ini_text(const SimOptions& o) {
  std::ostringstream os;
  options_to_ini(o).save(os);
  return os.str();
}

// Every key at its table value: a phases workload, a fault plan, obs with
// trace/telemetry/flight recorder, every monitor and two degrade policies.
// Left out: trace_file (it needs kind = trace) and the other two policies.
SimOptions full_options() {
  Ini ini;
  for (const KeyCase& c : kKeyCases) {
    const std::string_view key = c.key;
    if (key != "workload.trace_file" && key != "degrade.p99_ceiling" &&
        key != "degrade.recovery_deadline") {
      ini.set(c.key, c.text);
    }
  }
  return options_from_ini(ini);
}

// The serialized text is a stable interface: saved experiment configs and
// campaign specs are read back by later builds. Regenerate the fixtures
// with ERAPID_REGEN_GOLDEN=1 only when the text is meant to change.
void expect_ini_golden(const SimOptions& o, const std::string& name) {
  erapid::test::expect_golden(ini_text(o), name, "serialized config");
}

TEST(OptionsIo, DefaultIniMatchesGolden) {
  expect_ini_golden(SimOptions{}, "golden_options_default.ini");
}

TEST(OptionsIo, FullIniMatchesGolden) {
  expect_ini_golden(full_options(), "golden_options_full.ini");
}


SimOptions parse_with(const KeyCase& c, const std::string& value) {
  auto ini = Ini::parse_string(c.context);
  ini.set(c.key, value);
  return options_from_ini(ini);
}

TEST(OptionsIo, KeyTableListsEveryKeyOnce) {
  const auto keys = erapid::sim::option_keys();
  EXPECT_EQ(std::set<std::string_view>(keys.begin(), keys.end()).size(), keys.size());
  ASSERT_EQ(keys.size(), std::size(kKeyCases));
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys[i], kKeyCases[i].key);
}

// A row bound to the wrong member, or a value that does not reach its
// member, fails here.
TEST(OptionsIo, EveryKeyReadsIntoItsMember) {
  const SimOptions def;
  for (const KeyCase& c : kKeyCases) {
    ASSERT_NE(c.member(def), c.text) << c.key << ": sample value must differ from the default";
    EXPECT_EQ(c.member(parse_with(c, c.text)), c.text) << c.key;
  }
}

// kind = trace plus the two degrade policies full_options() leaves unset:
// with the default and full configs this writes every conditional key.
SimOptions trace_options() {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::Trace;
  o.workload.trace_file = "app.trace";
  o.obs.enabled = true;
  o.obs.monitors.p99_latency_ceiling = 900.0;
  o.obs.monitors.max_recovery_cycles = 9000;
  o.degrade.p99_ceiling = erapid::resilience::ResponsePolicy::Abort;
  o.degrade.recovery_deadline = erapid::resilience::ResponsePolicy::Record;
  return o;
}

TEST(OptionsIo, EveryKeySurvivesRoundTrip) {
  std::set<std::string> written;
  for (const SimOptions& o : {SimOptions{}, full_options(), trace_options()}) {
    const auto ini = options_to_ini(o);
    for (const auto& [key, value] : ini.entries()) written.insert(key);
    const auto back = options_from_ini(ini);
    for (const KeyCase& c : kKeyCases) EXPECT_EQ(c.member(back), c.member(o)) << c.key;
    EXPECT_EQ(back.workload, o.workload);  // phase specs compared field by field
    EXPECT_EQ(ini_text(back), ini_text(o));
  }
  for (const KeyCase& c : kKeyCases) EXPECT_EQ(written.count(c.key), 1u) << c.key;
}

TEST(OptionsIo, RealsRoundTripExactly) {
  SimOptions o;
  o.load_fraction = 0.123456789;
  o.hotspot_fraction = 1.0 / 3.0;
  o.obs.monitors.power_cap_mw = 2409.7123456;
  const auto ini = options_to_ini(o);
  EXPECT_EQ(ini.get("workload.load"), "0.123456789");
  const auto back = options_from_ini(ini);
  EXPECT_EQ(back.load_fraction, o.load_fraction);
  EXPECT_EQ(back.hotspot_fraction, o.hotspot_fraction);
  EXPECT_EQ(back.obs.monitors.power_cap_mw, o.obs.monitors.power_cap_mw);
  // Values exact at six digits keep their short form.
  EXPECT_EQ(ini.get("workload.hotspot_fraction"), "0.3333333333333333");
  EXPECT_EQ(options_to_ini(SimOptions{}).get("workload.load"), "0.5");
}

// Every key of a codec rejects every value in that codec's table.
void expect_codec_rejects(Codec codec, const std::vector<std::string>& bad) {
  for (const KeyCase& c : kKeyCases) {
    if (c.codec != codec) continue;
    for (const std::string& value : bad) {
      EXPECT_THROW(parse_with(c, value), erapid::ModelInvariantError)
          << c.key << " = '" << value << "'";
    }
    // Trailing junk after a valid value.
    if (codec != Codec::Path) {
      EXPECT_THROW(parse_with(c, std::string(c.text) + "x"), erapid::ModelInvariantError)
          << c.key;
    }
  }
}

TEST(OptionsIo, IntegerKeysRejectMalformedValues) {
  expect_codec_rejects(Codec::Integer, {"", "abc", "-1", "2.5", "1e3", "+4", " 4", "0x10",
                                        "18446744073709551616"});
}

TEST(OptionsIo, RealKeysRejectMalformedValues) {
  expect_codec_rejects(Codec::Real, {"", "abc", "nan", "inf", "-inf", "1e999", "0.5.5", " 0.5"});
  // Explicit bounds: unit weights in (0, 1], non-negative slack and
  // monitor thresholds, positive phase threshold, integer floors of 1
  // (a zero channel width divided by zero; a zero transmit queue ran
  // without ever accepting a packet; a zero measurement window printed
  // NaN throughput; a zero reconfiguration window rescheduled its timer
  // on the same cycle forever; a zero-bit flit or a zero-cycle transmitter
  // feed stalled the router, and a flit that is not whole bytes carried
  // none), and router hand-off delays in 1..64 cycles (the clock domain's
  // ring spans the longest one: a credit_delay of 4294967295 ran to zero
  // throughput, 4096-bit flits on the default 16-bit channel take 256
  // cycles each, and a same-cycle credit cannot ride the ring).
  const std::pair<const char*, const char*> kOutOfRange[] = {
      {"system.channel_width_bits", "0"},    {"system.tx_queue_packets", "0"},
      {"system.flit_bits", "0"},             {"system.flit_bits", "4"},
      {"system.tx_feed_cycles_per_flit", "0"},
      {"monitor.power_cap_mw", "-1"},        {"monitor.throughput_floor", "-0.5"},
      {"monitor.p99_latency_ceiling", "-900"}, {"obs.counter_interval", "0"},
      {"obs.telemetry_window", "0"},         {"reconfig.ewma_alpha", "1.0000001"},
      {"workload.measure_cycles", "0"},      {"reconfig.window", "0"},
      {"reconfig.ring_hop_cycles", "0"},     {"reconfig.lc_hop_cycles", "0"},
      {"reconfig.rc_watchdog_cycles", "0"},  {"system.rx_queue_packets", "0"},
      {"reconfig.hysteresis_windows", "0"},  {"reconfig.ewma_alpha", "0"},
      {"reconfig.ewma_alpha", "1.5"},      {"workload.load", "-0.5"},
      {"system.credit_delay", "0"},          {"system.credit_delay", "65"},
      {"system.credit_delay", "4294967295"}, {"system.tx_feed_cycles_per_flit", "65"},
      {"system.flit_bits", "4096"},
  };
  for (const auto& [key, value] : kOutOfRange) {
    Ini ini;
    ini.set(key, value);
    EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError) << key << " = " << value;
  }
  // The bounds are closed where the rule allows equality.
  const auto edge = options_from_ini(Ini::parse_string(
      "[reconfig]\newma_alpha = 1\nwindow = 1\n[monitor]\npower_cap_mw = 0\n"));
  EXPECT_EQ(edge.reconfig.dpm_params.ewma_alpha, 1.0);
  EXPECT_EQ(edge.reconfig.window, 1u);
  EXPECT_EQ(edge.obs.monitors.power_cap_mw, 0.0);
  const auto slow = options_from_ini(Ini::parse_string(
      "[system]\ncredit_delay = 64\ntx_feed_cycles_per_flit = 64\nchannel_width_bits = 1\n"));
  EXPECT_EQ(slow.system.credit_delay, 64u);
  EXPECT_EQ(slow.system.tx_feed_cycles_per_flit, 64u);
  EXPECT_EQ(slow.system.cycles_per_flit_electrical(), 64u);
}

// A router port tracks its busy VCs in one 64-bit mask, so system.num_vcs
// is at most 64: 65 is rejected at parse time with the key and the value
// named, and the closed bound 64 is accepted.
TEST(OptionsIo, NumVcsFitsTheRouterVcMask) {
  Ini ini;
  ini.set("system.num_vcs", "65");
  try {
    (void)options_from_ini(ini);
    ADD_FAILURE() << "system.num_vcs = 65 was accepted";
  } catch (const erapid::ModelInvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("system.num_vcs"), std::string::npos) << what;
    EXPECT_NE(what.find("65"), std::string::npos) << what;
  }
  ini.set("system.num_vcs", "64");
  EXPECT_EQ(options_from_ini(ini).system.num_vcs, 64u);
}

TEST(OptionsIo, FlagKeysAcceptOnlyKnownSpellings) {
  expect_codec_rejects(Codec::Flag, {"", "ture", "TRUE", "True", "2", "y", "enabled"});
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(options_from_ini(Ini::parse_string(std::string("[obs]\nenabled = ") + yes))
                    .obs.enabled)
        << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(
        options_from_ini(Ini::parse_string(std::string("[reconfig]\nshutdown_idle = ") + no))
            .reconfig.mode.dpm.shutdown_idle)
        << no;
  }
}

TEST(OptionsIo, ChoiceAndPolicyKeysRejectUnknownNames) {
  // "uniform:abc" is also a phases entry with a non-numeric volume.
  expect_codec_rejects(Codec::Choice, {"", "zigzag", " calendar", "uniform:abc"});
  // Numbers inside list grammars must fit their fields too.
  for (const char* bad : {"[fault]\nevents = lane_fail@18446744073709551616:d1:w1\n",
                          "[fault]\nevents = lane_fail@100:d4294967297:w1\n",
                          "[workload]\nkind = phases\nphases = uniform:4294967297\n",
                          "[workload]\nkind = phases\nphases = uniform:-4\n"}) {
    EXPECT_THROW(options_from_ini(Ini::parse_string(bad)), erapid::ModelInvariantError) << bad;
  }
  expect_codec_rejects(Codec::Policy, {"", "sched", "Record"});
  expect_codec_rejects(Codec::Path, {""});
}

// Inputs the lenient strtol/strtod parsing used to accept and silently
// wrap, truncate or zero.
TEST(OptionsIo, FormerlyWrappedInputsAreRejected) {
  const std::pair<const char*, const char*> kProbes[] = {
      {"workload.episodes", "-1"},        {"workload.tenants", "4294967297"},
      {"system.boards", "4294967300"},    {"reconfig.window", "-2000"},
      {"workload.seed", "-1"},            {"workload.load", "0.5x"},
      {"workload.load", "abc"},           {"workload.episodes", "2.5"},
      {"obs.enabled", "ture"},
      // The run window warmup + measure + drain_limit must fit in a Cycle.
      {"workload.drain_limit", "18446744073709551615"},
      {"workload.warmup_cycles", "18446744073709551000"},
  };
  for (const auto& [key, value] : kProbes) {
    Ini ini;
    ini.set(key, value);
    EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError) << key << " = " << value;
  }
}

// README.md documents every key: each key-table row names a known key, a
// backticked default equals what options_to_ini writes for SimOptions{},
// and every key has a row.
TEST(OptionsIo, ReadmeKeyTablesMatchTheKeyTable) {
  const std::string path = erapid::test::data_path("../../README.md");
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  const auto keys = erapid::sim::option_keys();
  const auto defaults = options_to_ini(SimOptions{});
  // degrade.* knobs are written only once a policy is set.
  SimOptions with_policy;
  with_policy.degrade.power_cap = erapid::resilience::ResponsePolicy::Record;
  const auto knobs = options_to_ini(with_policy);

  std::set<std::string> documented;
  bool in_key_table = false;
  std::string line;
  while (std::getline(in, line)) {
    std::string lower = line;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
    if (lower.rfind("| key | default |", 0) == 0) {
      in_key_table = true;
      continue;
    }
    if (line.empty() || line[0] != '|') in_key_table = false;
    if (!in_key_table || line.rfind("| `", 0) != 0) continue;
    const auto key_end = line.find('`', 3);
    const std::string key = line.substr(3, key_end - 3);
    ASSERT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "README documents unknown key " << key;
    documented.insert(key);
    const auto cell = line.find("| ", key_end) + 2;
    if (line.compare(cell, 1, "`") != 0) {
      EXPECT_FALSE(defaults.has(key)) << key << " is written by default; document its value";
      continue;
    }
    const std::string def = line.substr(cell + 1, line.find('`', cell + 1) - cell - 1);
    const auto written = defaults.has(key) ? defaults.get(key) : knobs.get(key);
    EXPECT_EQ(written, def) << "README default of " << key;
  }
  for (const auto key : keys) {
    EXPECT_EQ(documented.count(std::string(key)), 1u) << "README has no row for " << key;
  }
}

TEST(OptionsIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "erapid_opts.ini";
  SimOptions o;
  o.load_fraction = 0.33;
  erapid::sim::save_options(path, o);
  const auto back = load_options(path);
  EXPECT_DOUBLE_EQ(back.load_fraction, 0.33);
  std::remove(path.c_str());
}

// ---- Recorder ----------------------------------------------------------------

namespace {

/// A 2-board, 1-node-per-board network with an obs hub for the Recorder.
struct RecorderRig {
  erapid::topology::SystemConfig cfg;
  erapid::reconfig::ReconfigConfig rc;
  erapid::des::Engine engine;
  erapid::obs::Hub hub{[] {
    erapid::obs::ObsConfig o;
    o.enabled = true;
    return o;
  }()};
  std::unique_ptr<erapid::sim::Network> net;

  RecorderRig() {
    cfg.boards = 2;
    cfg.nodes_per_board = 1;
    net = std::make_unique<erapid::sim::Network>(engine, cfg, rc);
    net->start();
  }

  /// The points of one recorder.* timeline.
  const std::vector<erapid::obs::TimelinePoint>& points(const std::string& column) {
    return hub.metrics().timeline_points(hub.metrics().timeline("recorder." + column));
  }
};

}  // namespace

TEST(Recorder, SamplesAtFixedCadence) {
  RecorderRig rig;
  erapid::sim::Recorder rec(rig.engine, *rig.net, 100, rig.hub);
  rec.start();
  rig.engine.run_until(1050);
  const auto& power = rig.points("power_mw");
  ASSERT_EQ(power.size(), 10u);
  EXPECT_EQ(power[0].cycle, 100u);
  EXPECT_EQ(power[9].cycle, 1000u);
  // Two static lanes at P_high.
  EXPECT_NEAR(power[5].value, 2 * 43.03, 1e-9);
  EXPECT_EQ(rig.points("lanes_lit")[5].value, 2.0);
}

TEST(Recorder, StopHaltsSampling) {
  RecorderRig rig;
  erapid::sim::Recorder rec(rig.engine, *rig.net, 50, rig.hub);
  rec.start();
  rig.engine.run_until(200);
  rec.stop();
  rig.engine.run_until(1000);
  EXPECT_EQ(rig.points("power_mw").size(), 4u);
}

TEST(Recorder, AggregatesPower) {
  RecorderRig rig;
  erapid::sim::Recorder rec(rig.engine, *rig.net, 100, rig.hub);
  rec.start();
  rig.engine.run_until(500);
  const auto& stats =
      rig.hub.metrics().timeline_stats(rig.hub.metrics().timeline("recorder.power_mw"));
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_NEAR(stats.mean(), 2 * 43.03, 1e-9);
  EXPECT_NEAR(stats.max(), 2 * 43.03, 1e-9);
}

// ---- JSON report ---------------------------------------------------------------

TEST(Report, JsonContainsKeyFields) {
  erapid::sim::SimResult r;
  r.accepted_fraction = 0.5;
  r.latency_avg = 123.5;
  r.power_avg_mw = 999.25;
  r.drained = true;
  r.control.lane_grants = 7;
  const auto json = erapid::sim::to_json(r);
  EXPECT_NE(json.find("\"accepted_fraction\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"latency_avg\": 123.5"), std::string::npos);
  EXPECT_NE(json.find("\"drained\": true"), std::string::npos);
  EXPECT_NE(json.find("\"lane_grants\": 7"), std::string::npos);
}

// The `fault` block appears when either plane saw a fault: a data-plane
// RecoveryStats counter or ControlCounters::faulted().
bool has_fault_block(const erapid::sim::SimResult& r) {
  return erapid::sim::to_json(r).find("\"fault\"") != std::string::npos;
}

TEST(Report, FaultBlockOnStaleDirectivesAlone) {
  // Shedding alone can discard directives, with no fault plan at all.
  erapid::sim::SimResult r;
  r.control.stale_directives = 3;
  EXPECT_TRUE(has_fault_block(r));
  EXPECT_NE(erapid::sim::to_json(r).find("\"stale_directives\": 3"), std::string::npos);
}

TEST(Report, FaultBlockOnCtrlDropsAlone) {
  erapid::sim::SimResult r;
  r.control.ctrl_drops = 2;
  EXPECT_TRUE(has_fault_block(r));
  EXPECT_NE(erapid::sim::to_json(r).find("\"ctrl_drops\": 2"), std::string::npos);
}

TEST(Report, NoFaultBlockOnFaultFreeControlTraffic) {
  erapid::sim::SimResult r;
  r.control.lane_grants = 40;
  r.control.power_cycles = 12;
  EXPECT_FALSE(has_fault_block(r));
}

TEST(Report, NamedResultsDocument) {
  erapid::sim::SimResult a, b;
  a.accepted_fraction = 0.1;
  b.accepted_fraction = 0.2;
  const auto doc = erapid::sim::results_to_json({{"NP-NB", a}, {"P-B", b}});
  EXPECT_NE(doc.find("\"name\": \"NP-NB\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"P-B\""), std::string::npos);
  EXPECT_NE(doc.find("\"results\""), std::string::npos);
}

TEST(Report, WriteFileRoundTrip) {
  const std::string path = testing::TempDir() + "erapid_report.json";
  erapid::sim::SimResult r;
  erapid::sim::write_results_json(path, {{"x", r}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"x\""), std::string::npos);
  std::remove(path.c_str());
}

// Each writer flushes before it checks its stream, so a full disk fails the
// call instead of leaving a silently truncated file.
TEST(Report, FileWritersFailOnAFullDisk) {
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  EXPECT_THROW(erapid::sim::write_results_json("/dev/full", {{"x", erapid::sim::SimResult{}}}),
               erapid::ModelInvariantError);
  EXPECT_THROW(erapid::sim::save_options("/dev/full", SimOptions{}), erapid::ModelInvariantError);
}

// erapid-bench-1 points: each result-driven block pinned byte for byte.
erapid::sim::SimResult bench_result() {
  erapid::sim::SimResult r;
  r.accepted_fraction = 0.25;
  r.latency_avg = 100.5;
  r.latency_p99 = 300;
  r.power_avg_mw = 50;
  r.active_power_avg_mw = 20.125;
  r.packets_delivered_measured = 40;
  r.end_cycle = 1000;
  r.drained = true;
  r.control.lane_grants = 6;
  r.control.level_changes = 9;
  return r;
}

const char kBenchMetrics[] =
    "\"throughput_xNc\": 0.25, \"latency_avg_cycles\": 100.5, \"latency_p99_cycles\": 300, "
    "\"power_avg_mw\": 50, \"active_power_avg_mw\": 20.125, "
    "\"energy_per_packet_mw_cycles\": 1250, \"drained\": true, \"lane_grants\": 6, "
    "\"dvs_level_changes\": 9";

TEST(Report, BenchPointOpenLoop) {
  const auto r = bench_result();
  EXPECT_EQ(erapid::sim::bench_point_json({{{"mode", std::string("P-B")}, {"load", 0.3}}, &r, 12.5}),
            std::string("{\"mode\": \"P-B\", \"load\": 0.3, ") + kBenchMetrics +
                ", \"wall_ms\": 12.5}");
}

TEST(Report, BenchPointWorkloadBlock) {
  auto r = bench_result();
  r.workload.kind = "allreduce";
  r.workload.completed = true;
  r.workload.worst_phase_cycles = 312;
  r.workload.worst_episode_cycles = 900;
  EXPECT_EQ(erapid::sim::bench_point_json({{{"pattern", std::string("allreduce")},
                                             {"mode", std::string("NP-NB")},
                                             {"load", 0.7},
                                             {"seed", std::uint64_t{1}}},
                                            &r,
                                            0.0}),
            std::string("{\"pattern\": \"allreduce\", \"mode\": \"NP-NB\", \"load\": 0.7, "
                        "\"seed\": 1, \"completed\": true, \"makespan_cycles\": 1000, "
                        "\"worst_phase_cycles\": 312, \"worst_episode_cycles\": 900, ") +
                kBenchMetrics + ", \"wall_ms\": 0}");
}

TEST(Report, BenchPointMonitorsAndResilienceBlocks) {
  auto r = bench_result();
  r.monitors = {{"power_cap_mw", "{}"}};
  r.monitor_violations = 3;
  auto& st = r.resilience.emplace();
  st.engaged = true;
  st.peak_stage = erapid::resilience::Stage::Shed;
  st.steps_down = 4;
  st.steps_up = 1;
  st.lanes_shed = 2;
  st.lanes_restored = 1;
  st.lanes_slept = 5;
  st.episodes = 1;
  st.time_degraded = 700;
  st.suppressed_violations = 3;
  EXPECT_EQ(
      erapid::sim::bench_point_json(
          {{{"mode", std::string("P-B")}, {"cap_mw", 100.0}, {"load", 0.5}}, &r, 1.0}),
      std::string("{\"mode\": \"P-B\", \"cap_mw\": 100, \"load\": 0.5, ") + kBenchMetrics +
          ", \"monitors_ok\": false, \"monitor_violations\": 3, \"resilience\": "
          "{\"engaged\": true, \"peak_stage\": \"shed\", \"steps_down\": 4, \"steps_up\": 1, "
          "\"lanes_shed\": 2, \"lanes_restored\": 1, \"lanes_slept\": 5, \"episodes\": 1, "
          "\"time_degraded\": 700, \"suppressed_violations\": 3}, \"wall_ms\": 1}");
}

// Every quoted key between `"<block>": {` and the block's closing brace.
std::vector<std::string> block_keys(const std::string& json, const std::string& block) {
  std::vector<std::string> keys;
  const std::string open = "\"" + block + "\": {";
  auto pos = json.find(open);
  if (pos == std::string::npos) return keys;
  const auto end = json.find('}', pos);
  pos += open.size();
  while ((pos = json.find('"', pos)) < end) {
    const auto close = json.find('"', pos + 1);
    if (json.compare(close + 1, 1, ":") == 0) keys.push_back(json.substr(pos + 1, close - pos - 1));
    pos = json.find_first_of(",}", close);
  }
  return keys;
}

TEST(Report, BenchPointResilienceKeysMatchReport) {
  auto r = bench_result();
  r.resilience.emplace();
  const auto point_keys = block_keys(erapid::sim::bench_point_json({{}, &r, 0.0}), "resilience");
  EXPECT_EQ(point_keys.size(), 10u);
  EXPECT_EQ(point_keys, block_keys(erapid::sim::to_json(r), "resilience"));
}

TEST(Report, BenchPointFaultKeysMatchReport) {
  auto r = bench_result();
  EXPECT_TRUE(block_keys(erapid::sim::bench_point_json({{}, &r, 0.0}), "fault").empty());
  r.fault.lanes_failed = 1;
  const auto point_keys = block_keys(erapid::sim::bench_point_json({{}, &r, 0.0}), "fault");
  EXPECT_EQ(point_keys.size(), 27u);
  EXPECT_EQ(point_keys, block_keys(erapid::sim::to_json(r), "fault"));
}

// Each statistic has one home in the report: a run with every block on
// carries its counts in the fault, workload, obs_monitors, obs_telemetry
// and resilience blocks (or at top level), and obs_metrics keeps only what
// no other block carries.
TEST(Report, ObsMetricsCarryNoStatisticAnotherBlockCarries) {
  const std::string telemetry = testing::TempDir() + "erapid_one_home.telemetry.jsonl";
  const std::string flight = testing::TempDir() + "erapid_one_home.flight.json";
  const auto o = options_from_ini(Ini::parse_string(
      "[system]\nboards = 4\nnodes_per_board = 4\n"
      "[reconfig]\nmode = P-B\n"
      "[fault]\nevents = lane_fail@3000:d1:w1:r6000\n"
      "[workload]\nkind = tenants\ntenants = 3\nwarmup_cycles = 4000\n"
      "measure_cycles = 8000\ndrain_limit = 60000\n"
      "[obs]\nenabled = true\ntelemetry = " + telemetry + "\ntelemetry_window = 1000\n"
      "flight_recorder_depth = 64\nflight_recorder = " + flight + "\n"
      "[monitor]\npower_cap_mw = 200\n"
      "[degrade]\npower_cap = degrade\n"));
  const auto r = erapid::sim::Simulation(o).run();
  std::remove(telemetry.c_str());
  std::remove(flight.c_str());
  const std::string json = erapid::sim::to_json(r);

  for (const char* field : {"lane_grants", "dvs_level_changes"}) {
    EXPECT_NE(json.find(std::string("\"") + field + "\": "), std::string::npos) << field;
  }
  const auto expect_fields = [&json](const std::string& block,
                                     std::initializer_list<const char*> fields) {
    const auto keys = block_keys(json, block);
    EXPECT_FALSE(keys.empty()) << "no " << block << " block";
    for (const char* f : fields) {
      EXPECT_NE(std::find(keys.begin(), keys.end(), f), keys.end()) << block << "." << f;
    }
  };
  expect_fields("fault", {"lanes_failed"});
  expect_fields("workload", {"tenant_delivered_bytes"});
  expect_fields("obs_monitors", {"violations"});
  expect_fields("obs_telemetry", {"windows", "phase_changes", "final_phase"});
  expect_fields("resilience", {"steps_down", "steps_up", "lanes_shed", "lanes_restored",
                               "lanes_slept", "suppressed_violations"});

  const std::set<std::string> deleted = {
      "sim.packet_latency",          "reconfig.lane_grants",
      "reconfig.level_changes",      "monitor.violations",
      "resilience.ladder_steps",     "resilience.recover_steps",
      "resilience.lanes_shed",       "resilience.lanes_restored",
      "resilience.lanes_slept",      "resilience.suppressed_violations",
      "telemetry.windows",           "telemetry.phase_changes",
      "telemetry.phase_id",          "workload.tenant00.bytes",
      "workload.tenant01.bytes",     "workload.tenant02.bytes",
      "workload.tenant_bytes"};
  bool has_hist = false;
  for (const auto& [name, value] : r.metrics) {
    EXPECT_EQ(deleted.count(name), 0u) << name;
    EXPECT_FALSE(name.starts_with("des.dispatch_cost.")) << name;
    has_hist = has_hist || name == "sim.packet_latency_hist";
  }
  EXPECT_TRUE(has_hist) << "sim.packet_latency_hist is the latency home in obs_metrics";
}

}  // namespace
