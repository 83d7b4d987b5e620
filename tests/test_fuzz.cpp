// Differential and fuzz tests.
//
//  * Engine vs a naive reference executor: random schedule/cancel
//    workloads must execute in identical order.
//  * Lane state machine driven by random operation sequences: the power
//    meter must always match the lane's externally visible state and no
//    packet may be lost.
//  * Network churn fuzz: random small systems under random loads with
//    aggressive reconfiguration windows — every invariant check stays
//    quiet and labelled conservation holds.
//  * Fault-plan grammar fuzz: random valid plans must round-trip through
//    parse → format → parse unchanged; random garbage and single-character
//    mutations must either parse or throw cleanly (never crash/UB — the
//    sanitizer CI job runs this under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "des/engine.hpp"
#include "fault/plan.hpp"
#include "sim/options_io.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace {

using erapid::Cycle;
using erapid::des::Engine;
using erapid::util::Rng;

// ---- Engine vs reference executor -------------------------------------------

struct RefEvent {
  Cycle when;
  std::uint64_t seq;
  int id;
  bool cancelled = false;
};

TEST(EngineFuzz, MatchesReferenceExecutorOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Engine engine;
    std::vector<int> engine_order;
    std::vector<RefEvent> ref;
    std::vector<erapid::des::EventHandle> handles;

    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const Cycle when = rng.next_below(1000);
      ref.push_back({when, static_cast<std::uint64_t>(i), i});
      handles.push_back(
          engine.schedule_at(when, [&engine_order, i] { engine_order.push_back(i); }));
    }
    // Cancel a random ~25%.
    for (int i = 0; i < n; ++i) {
      if (rng.next_below(4) == 0) {
        handles[static_cast<std::size_t>(i)].cancel();
        ref[static_cast<std::size_t>(i)].cancelled = true;
      }
    }
    engine.run_all();

    std::stable_sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.when < b.when;  // stable keeps seq (FIFO) order at equal times
    });
    std::vector<int> ref_order;
    for (const auto& e : ref) {
      if (!e.cancelled) ref_order.push_back(e.id);
    }
    ASSERT_EQ(engine_order, ref_order) << "seed " << seed;
  }
}

TEST(EngineFuzz, NestedSchedulingMatchesReference) {
  // Events that schedule follow-ups at random offsets; compare the
  // total executed count against an analytical bound and monotone time.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Engine engine;
    Cycle last = 0;
    std::uint64_t fired = 0;
    std::function<void(int)> spawn = [&](int depth) {
      ++fired;
      EXPECT_GE(engine.now(), last);
      last = engine.now();
      if (depth > 0) {
        const auto kids = rng.next_below(3);
        for (std::uint64_t k = 0; k < kids; ++k) {
          engine.schedule(rng.next_below(50) + 1, [&spawn, depth] { spawn(depth - 1); });
        }
      }
    };
    engine.schedule(1, [&spawn] { spawn(6); });
    engine.run_all();
    EXPECT_GE(fired, 1u);
    EXPECT_EQ(engine.events_executed(), fired);
  }
}

// ---- Lane state-machine fuzz --------------------------------------------------

TEST(LaneFuzz, RandomOpSequencesPreserveInvariants) {
  using erapid::power::PowerLevel;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    erapid::test::LaneRig rig;
    std::uint64_t transmitted = 0;

    for (int op = 0; op < 200; ++op) {
      const Cycle now = rig.engine.now();
      switch (rng.next_below(5)) {
        case 0:  // enable if disabled
          if (!rig.lane->enabled()) {
            const PowerLevel lvl = static_cast<PowerLevel>(1 + rng.next_below(3));
            rig.lane->enable(now, lvl);
          }
          break;
        case 1:  // disable if enabled
          if (rig.lane->enabled()) rig.lane->disable(now);
          break;
        case 2:  // DVS request
          if (rig.lane->enabled()) {
            const PowerLevel lvl = static_cast<PowerLevel>(rng.next_below(4));
            rig.lane->request_level(lvl, now);
          }
          break;
        case 3:  // transmit attempt
          if (rig.lane->try_transmit(erapid::test::LaneRig::packet(op), now)) {
            ++transmitted;
          }
          break;
        case 4:  // let time pass
          rig.engine.run_until(now + rng.next_below(120) + 1);
          break;
      }
      // Invariant: meter power reflects the lane's visible state.
      if (!rig.lane->enabled()) {
        EXPECT_NEAR(rig.meter.instantaneous_mw().value(), 0.0, 1e-9) << "seed " << seed;
      } else {
        EXPECT_NEAR(rig.meter.instantaneous_mw().value(),
                    rig.pw.power_mw(rig.lane->level()).value(), 1e-9)
            << "seed " << seed;
      }
    }
    // Drain: every transmitted packet must eventually eject.
    rig.engine.run_until(rig.engine.now() + 100000);
    EXPECT_EQ(rig.delivered.size(), transmitted) << "seed " << seed;
  }
}

// ---- whole-network churn fuzz ----------------------------------------------------

TEST(NetworkFuzz, RandomSmallSystemsConserveLabelledPackets) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 77);
    erapid::sim::SimOptions o;
    o.system.boards = static_cast<std::uint32_t>(2 + rng.next_below(3));       // 2..4
    o.system.nodes_per_board = static_cast<std::uint32_t>(1 + rng.next_below(4));  // 1..4
    o.load_fraction = 0.05 + 0.1 * rng.next_double();  // below every saturation
    o.seed = seed;
    o.warmup_cycles = 2000;
    o.measure_cycles = 4000;
    o.drain_limit = 120000;
    o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
    o.reconfig.window = 250 + rng.next_below(500);  // aggressive churn
    const auto pats = {erapid::traffic::PatternKind::Uniform,
                       erapid::traffic::PatternKind::Neighbor,
                       erapid::traffic::PatternKind::Tornado};
    o.pattern = *(pats.begin() + static_cast<long>(rng.next_below(pats.size())));

    const auto r = erapid::sim::Simulation(o).run();
    EXPECT_TRUE(r.drained) << "seed " << seed << " " << o.system.boards << "x"
                           << o.system.nodes_per_board;
    EXPECT_EQ(r.labelled_generated, r.labelled_delivered) << "seed " << seed;
  }
}

// ---- fault-plan grammar fuzz ------------------------------------------------------

// One random well-formed spec. `at` is the caller-supplied injection cycle
// (strictly increasing across a plan keeps the duplicate rejector quiet).
std::string random_valid_spec(Rng& rng, Cycle at) {
  std::ostringstream os;
  const auto d = rng.next_below(8);
  const auto w = rng.next_below(8);
  const auto b = rng.next_below(8);
  switch (rng.next_below(5)) {
    case 0:
      os << "lane_fail@" << at << ":d" << d << ":w" << w;
      if (rng.next_below(2) == 0) os << ":r" << (at + 1 + rng.next_below(5000));
      break;
    case 1: {
      static const char* caps[] = {"low", "mid", "high"};
      os << "laser_degrade@" << at << ":d" << d << ":w" << w << ":"
         << caps[rng.next_below(3)] << ":" << rng.next_below(9000);
      break;
    }
    case 2:
      os << "ctrl_drop@" << at << ":" << (rng.next_below(2) == 0 ? "ring" : "chain")
         << ":b" << b;
      if (rng.next_below(2) == 0) os << ":n" << (1 + rng.next_below(6));
      break;
    case 3: {
      double ber = rng.next_double();
      if (!(ber > 0.0)) ber = 0.5;
      os << "bit_error@" << at << ":d" << d << ":w" << w << ":p" << std::setprecision(17)
         << ber << ":" << rng.next_below(9000);
      break;
    }
    case 4:
      os << "rc_crash@" << at << ":b" << b;
      if (rng.next_below(2) == 0) os << ":r" << (at + 1 + rng.next_below(5000));
      break;
  }
  return os.str();
}

TEST(FaultPlanFuzz, ParseFormatParseIsIdentity) {
  using erapid::fault::FaultPlan;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 131);
    std::string joined;
    Cycle at = 1;
    const auto n = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!joined.empty()) joined += ' ';
      joined += random_valid_spec(rng, at);
      at += 1 + rng.next_below(1000);
    }
    const auto plan = FaultPlan::parse_events(joined);
    const auto again = FaultPlan::parse_events(plan.format_events());
    ASSERT_EQ(again.events, plan.events) << "seed " << seed << ": " << joined;
    EXPECT_EQ(again.format_events(), plan.format_events()) << "seed " << seed;
  }
}

// Parsing must be total: any input either yields a plan or throws the
// contract error — no other exception type, no crash, no sanitizer finding.
void expect_parse_is_total(const std::string& input) {
  using erapid::fault::FaultPlan;
  try {
    const auto plan = FaultPlan::parse_events(input);
    // Accepted inputs must then round-trip like any valid plan.
    const auto again = FaultPlan::parse_events(plan.format_events());
    EXPECT_EQ(again.events, plan.events) << "input: " << input;
  } catch (const erapid::ModelInvariantError&) {
    // Rejected cleanly.
  }
}

TEST(FaultPlanFuzz, RandomGarbageNeverCrashes) {
  static const char kCharset[] = "abcdefghijklmnopqrstuvwxyz@:._0123456789rdwbnp ,;-+e";
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed * 977);
    std::string s;
    const auto len = rng.next_below(48);
    for (std::uint64_t i = 0; i < len; ++i) {
      s += kCharset[rng.next_below(sizeof(kCharset) - 1)];
    }
    expect_parse_is_total(s);
  }
}

TEST(FaultPlanFuzz, SingleCharacterMutationsNeverCrash) {
  static const char kCharset[] = "abcdefghijklmnopqrstuvwxyz@:._0123456789rdwbnp ,;-+e";
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 613);
    std::string s = random_valid_spec(rng, 1 + rng.next_below(10000));
    const auto pos = rng.next_below(s.size());
    s[pos] = kCharset[rng.next_below(sizeof(kCharset) - 1)];
    expect_parse_is_total(s);
  }
}

// ---- degrade.* INI grammar fuzz ---------------------------------------------------

// One random *valid* survivability config: every policy is armed against
// the monitor check it answers for, end-of-run checks only get the
// policies they admit, and knobs stay inside their validated ranges.
std::string random_degrade_ini(Rng& rng) {
  static const char* kAll[] = {"record", "degrade", "shed", "abort"};
  static const char* kFinal[] = {"record", "abort"};
  std::ostringstream mon, dg;
  bool any = false;
  if (rng.next_below(2) == 0) {
    mon << "power_cap_mw = " << (100 + rng.next_below(900)) << "\n";
    dg << "power_cap = " << kAll[rng.next_below(4)] << "\n";
    any = true;
  }
  if (rng.next_below(2) == 0) {
    mon << "throughput_floor = 0." << (1 + rng.next_below(8)) << "\n";
    dg << "throughput_floor = " << kFinal[rng.next_below(2)] << "\n";
    any = true;
  }
  if (rng.next_below(2) == 0) {
    mon << "p99_latency_ceiling = " << (500 + rng.next_below(5000)) << "\n";
    dg << "p99_ceiling = " << kFinal[rng.next_below(2)] << "\n";
    any = true;
  }
  if (!any || rng.next_below(2) == 0) {
    mon << "max_recovery_cycles = " << (1000 + rng.next_below(50000)) << "\n";
    dg << "recovery_deadline = " << kFinal[rng.next_below(2)] << "\n";
  }
  if (rng.next_below(2) == 0) {
    dg << "cooldown_cycles = " << (1 + rng.next_below(10000)) << "\n";
  }
  if (rng.next_below(2) == 0) {
    dg << "recover_margin = 0." << (1 + rng.next_below(9)) << "\n";
  }
  if (rng.next_below(2) == 0) {
    dg << "recover_cycles = " << (1 + rng.next_below(100000)) << "\n";
  }
  if (rng.next_below(2) == 0) dg << "shed_step = " << (1 + rng.next_below(8)) << "\n";
  if (rng.next_below(2) == 0) {
    dg << "max_shed_fraction = 0." << (1 + rng.next_below(9)) << "\n";
  }
  std::ostringstream os;
  os << "[reconfig]\nmode = P-B\n[obs]\nenabled = true\n"
     << "[monitor]\n" << mon.str() << "[degrade]\n" << dg.str();
  return os.str();
}

TEST(DegradeIniFuzz, ParseFormatParseIsIdentity) {
  using erapid::sim::options_from_ini;
  using erapid::sim::options_to_ini;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 389);
    const std::string text = random_degrade_ini(rng);
    const auto o = options_from_ini(erapid::util::Ini::parse_string(text));
    std::ostringstream first, second;
    options_to_ini(o).save(first);
    options_to_ini(options_from_ini(options_to_ini(o))).save(second);
    ASSERT_EQ(first.str(), second.str()) << "seed " << seed << "\n" << text;
  }
}

// Any degrade.* input either parses (and then round-trips) or throws the
// contract error — never crashes, never silently mis-parses.
void expect_degrade_parse_is_total(const std::string& text) {
  using erapid::sim::options_from_ini;
  using erapid::sim::options_to_ini;
  try {
    const auto o = options_from_ini(erapid::util::Ini::parse_string(text));
    std::ostringstream first, second;
    options_to_ini(o).save(first);
    options_to_ini(options_from_ini(options_to_ini(o))).save(second);
    EXPECT_EQ(first.str(), second.str()) << text;
  } catch (const erapid::ModelInvariantError&) {
    // Rejected cleanly.
  }
}

// Garbage values on any config key (not just degrade.*), on top of an
// armed power-cap check so degrade policies can take effect.
TEST(DegradeIniFuzz, GarbageValuesNeverCrash) {
  static const char kCharset[] = "abcdefghijklmnopqrstuvwxyz0123456789.-+e ";
  const auto keys = erapid::sim::option_keys();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 739);
    std::string value;
    const auto len = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < len; ++i) {
      value += kCharset[rng.next_below(sizeof(kCharset) - 1)];
    }
    const std::string_view key = keys[rng.next_below(keys.size())];
    const auto dot = key.find('.');
    std::ostringstream os;
    os << "[obs]\nenabled = true\n[monitor]\npower_cap_mw = 100\n[" << key.substr(0, dot)
       << "]\n" << key.substr(dot + 1) << " = " << value << "\n";
    expect_degrade_parse_is_total(os.str());
  }
}

TEST(DegradeIniFuzz, CrossFieldInvalidConfigsAreRejected) {
  using erapid::sim::options_from_ini;
  using erapid::util::Ini;
  const char* kBad[] = {
      // Policy without the monitor check it answers for.
      "[obs]\nenabled = true\n[degrade]\npower_cap = record\n",
      // Policy with the check armed but obs disabled.
      "[monitor]\npower_cap_mw = 100\n[degrade]\npower_cap = record\n",
      // Shed needs bandwidth reconfiguration (DBR) to act through.
      "[reconfig]\nmode = NP-NB\n[obs]\nenabled = true\n"
      "[monitor]\npower_cap_mw = 100\n[degrade]\npower_cap = shed\n",
      // End-of-run checks admit record|abort only — nothing to shed at the end.
      "[reconfig]\nmode = P-B\n[obs]\nenabled = true\n"
      "[monitor]\nthroughput_floor = 0.4\n[degrade]\nthroughput_floor = shed\n",
      "[reconfig]\nmode = P-B\n[obs]\nenabled = true\n"
      "[monitor]\np99_latency_ceiling = 900\n[degrade]\np99_ceiling = degrade\n",
      // Knob ranges (validated even with no policy configured).
      "[degrade]\ncooldown_cycles = 0\n",
      "[degrade]\nrecover_margin = 1.5\n",
      "[degrade]\nrecover_cycles = -3\n",
      "[degrade]\nshed_step = 0\n",
      "[degrade]\nmax_shed_fraction = 0\n",
      // Unknown policy token / unknown key.
      "[obs]\nenabled = true\n[monitor]\npower_cap_mw = 100\n"
      "[degrade]\npower_cap = sched\n",
      "[degrade]\npower_kap = record\n",
  };
  for (const char* text : kBad) {
    EXPECT_THROW(options_from_ini(Ini::parse_string(text)),
                 erapid::ModelInvariantError)
        << text;
  }
}

// ---- golden regression -------------------------------------------------------------

// Locks the exact deterministic behaviour of the default configuration so
// refactors that silently change model timing are caught. Integer counts
// must match exactly; floating-point summaries very tightly.
TEST(Golden, DefaultUniformHalfLoadSeed1) {
  erapid::sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.load_fraction = 0.5;
  o.seed = 1;
  o.warmup_cycles = 4000;
  o.measure_cycles = 8000;
  o.drain_limit = 60000;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  const auto a = erapid::sim::Simulation(o).run();
  const auto b = erapid::sim::Simulation(o).run();
  // Self-consistency (byte-determinism) …
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_delivered_measured, b.packets_delivered_measured);
  EXPECT_EQ(a.control.lane_grants, b.control.lane_grants);
  EXPECT_DOUBLE_EQ(a.latency_avg, b.latency_avg);
  // … and the frozen golden values (see tests_support.hpp for the policy
  // on updating these).
  EXPECT_EQ(a.packets_generated, erapid::test::kGoldenGenerated);
  EXPECT_EQ(a.packets_delivered_measured, erapid::test::kGoldenDelivered);
  EXPECT_NEAR(a.latency_avg, erapid::test::kGoldenLatency, 1e-6);
  EXPECT_NEAR(a.power_avg_mw, erapid::test::kGoldenPowerMw, 1e-6);
}

}  // namespace
