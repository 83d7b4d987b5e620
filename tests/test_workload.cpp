// Tests for the workload subsystem: schedule builders, the phase engine's
// pacing/completion machinery, the tenant fleet, and the end-to-end
// completion-bounded simulation path (determinism per seed, completion
// without deadlock under all four network modes, golden fixture).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "des/engine.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "tests_support.hpp"
#include "util/expect.hpp"
#include "workload/collectives.hpp"
#include "workload/driver.hpp"
#include "workload/hpc_kernels.hpp"
#include "workload/phase.hpp"
#include "workload/spec.hpp"
#include "workload/tenants.hpp"

namespace {

using erapid::Cycle;
using erapid::NodeId;
using erapid::reconfig::NetworkMode;
using erapid::sim::SimOptions;
using erapid::sim::SimResult;
using erapid::sim::Simulation;
using erapid::traffic::PatternKind;
namespace workload = erapid::workload;

// ---- schedule builders ------------------------------------------------------

TEST(Builders, AllReduceHasTwoNMinusOnePhasesPerEpisode) {
  const auto s = workload::make_allreduce(8, 4, 0.5, 3);
  EXPECT_EQ(s.phases_per_episode, 14u);  // 2*(8-1)
  EXPECT_EQ(s.phases.size(), 42u);
  // Every ring step sends to the next rank.
  erapid::util::Rng rng(1);
  for (const auto& p : s.phases) {
    EXPECT_EQ(p.destination(NodeId{3}, rng), NodeId{4});
    EXPECT_EQ(p.destination(NodeId{7}, rng), NodeId{0});
  }
  EXPECT_EQ(s.phases.front().name, "allreduce.rs.e0.s0");
  EXPECT_EQ(s.phases.back().name, "allreduce.ag.e2.s13");
}

TEST(Builders, AllToAllShiftsEveryStep) {
  const auto s = workload::make_alltoall(4, 2, 0.5, 1);
  ASSERT_EQ(s.phases.size(), 3u);
  erapid::util::Rng rng(1);
  EXPECT_EQ(s.phases[0].destination(NodeId{0}, rng), NodeId{1});
  EXPECT_EQ(s.phases[1].destination(NodeId{0}, rng), NodeId{2});
  EXPECT_EQ(s.phases[2].destination(NodeId{0}, rng), NodeId{3});
  // Each step is a permutation: distinct sources map to distinct dests.
  EXPECT_EQ(s.phases[1].destination(NodeId{3}, rng), NodeId{1});
}

TEST(Builders, FftHasLog2Stages) {
  const auto s = workload::make_fft(16, 2, 0.5, 2);
  EXPECT_EQ(s.phases_per_episode, 4u);
  EXPECT_EQ(s.phases.size(), 8u);
  erapid::util::Rng rng(1);
  EXPECT_EQ(s.phases[0].destination(NodeId{5}, rng), NodeId{4});   // bit 0
  EXPECT_EQ(s.phases[3].destination(NodeId{5}, rng), NodeId{13});  // bit 3
}

TEST(Builders, FftRejectsNonPowerOfTwo) {
  EXPECT_THROW(workload::make_fft(12, 2, 0.5, 1), erapid::ModelInvariantError);
  EXPECT_THROW(workload::make_ptrans(6, 2, 0.5, 1, 0),
               erapid::ModelInvariantError);
}

TEST(Builders, RandomAccessUsesSingleFlitPackets) {
  const auto s = workload::make_randomaccess(8, 16, 0.5, 1);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].packet_flits, 1u);
}

TEST(Builders, BeffSweepsSizesAtConstantByteVolume) {
  // base 8 flits: sizes 1,2,4,8 — four phases per episode (the sweep tops
  // out at the system packet length; see make_beff).
  const auto s = workload::make_beff(8, 16, 0.5, 1, 8);
  EXPECT_EQ(s.phases_per_episode, 4u);
  ASSERT_EQ(s.phases.size(), 4u);
  const std::uint64_t budget = 16ull * 8;  // volume * base flits
  for (const auto& p : s.phases) {
    // Per-phase flit volume stays within one packet of the byte budget.
    const std::uint64_t flits =
        static_cast<std::uint64_t>(p.volume_packets) * p.packet_flits;
    EXPECT_GE(flits, budget - p.packet_flits);
    EXPECT_LE(flits, budget);
  }
  // Byte rate constant: packet rate halves as size doubles.
  EXPECT_DOUBLE_EQ(s.phases[1].rate_pkt_node_cycle,
                   2.0 * s.phases[2].rate_pkt_node_cycle);
}

TEST(Builders, PhaseScheduleAppliesDefaultAndExplicitRates) {
  std::vector<workload::PhaseSpec> specs(2);
  specs[0].pattern = PatternKind::Transpose;
  specs[0].volume_packets = 4;
  specs[1].pattern = PatternKind::Uniform;
  specs[1].volume_packets = 2;
  specs[1].rate = 0.25;
  specs[1].gap_after = 100;
  const auto s = workload::make_phase_schedule(specs, 16, 0.4, 0.8, 2, 0.2, 0);
  ASSERT_EQ(s.phases.size(), 4u);
  EXPECT_DOUBLE_EQ(s.phases[0].rate_pkt_node_cycle, 0.8 * 0.4);   // default
  EXPECT_DOUBLE_EQ(s.phases[1].rate_pkt_node_cycle, 0.25 * 0.4);  // explicit
  EXPECT_EQ(s.phases[1].gap_after, 100u);
}

// ---- phase engine -----------------------------------------------------------

/// Loopback harness: injected packets are "delivered" back to the engine a
/// fixed delay later, so completion semantics are testable without a network.
struct Loopback {
  erapid::des::Engine engine;
  std::unique_ptr<workload::PhaseEngine> driver;
  std::uint64_t injected = 0;
  std::vector<Cycle> inject_cycles;

  explicit Loopback(workload::Schedule s, Cycle delay = 10,
                    std::uint32_t num_nodes = 4) {
    workload::PhaseEngineConfig pc;
    pc.num_nodes = num_nodes;
    pc.flit_bytes = 8;
    driver = std::make_unique<workload::PhaseEngine>(
        engine, std::move(s), pc,
        [this, delay](const erapid::router::Packet& p, Cycle now) {
          ++injected;
          inject_cycles.push_back(now);
          engine.schedule(delay, [this, p] { driver->on_delivered(p, engine.now()); },
                          "test.loopback");
        });
  }
};

TEST(PhaseEngine, CompletesAllPhasesAndCountsBytes) {
  Loopback rig(workload::make_allreduce(4, 2, 0.5, 2));
  rig.driver->start();
  rig.engine.run_until(100000);
  EXPECT_TRUE(rig.driver->done());
  const auto& st = rig.driver->stats();
  // 2 episodes x 6 phases x (2 packets x 4 nodes).
  EXPECT_EQ(st.phases_completed, 12u);
  EXPECT_EQ(st.episodes_completed, 2u);
  EXPECT_EQ(st.packets_injected, 96u);
  EXPECT_EQ(st.packets_delivered, 96u);
  EXPECT_EQ(st.bytes_delivered, 96u * 8 * 8);  // default 8 flits x 8 B
  EXPECT_GT(st.completion_cycle, 0u);
  EXPECT_GE(st.worst_episode_cycles, st.worst_phase_cycles);
}

TEST(PhaseEngine, PacingFollowsTheArithmeticPlan) {
  // 1 phase, 4 packets/node over 4 nodes at 0.5 pkt/node/cycle = 2 pkt/cycle
  // aggregate: packets k depart at floor(k/2) — two per cycle.
  workload::Schedule s;
  workload::PhaseDef p;
  p.name = "pace";
  p.volume_packets = 4;
  p.rate_pkt_node_cycle = 0.5;
  p.destination = [](NodeId src, erapid::util::Rng&) {
    return NodeId{(src.value() + 1) % 4};
  };
  s.phases.push_back(std::move(p));
  Loopback rig(std::move(s));
  rig.driver->start();
  rig.engine.run_until(1000);
  ASSERT_EQ(rig.inject_cycles.size(), 16u);
  for (std::size_t k = 0; k < rig.inject_cycles.size(); ++k) {
    EXPECT_EQ(rig.inject_cycles[k], Cycle{k / 2}) << "packet " << k;
  }
}

TEST(PhaseEngine, GapDelaysTheNextPhase) {
  Loopback with_gap(workload::make_ptrans(4, 2, 0.5, 2, 500));
  with_gap.driver->start();
  with_gap.engine.run_until(100000);
  Loopback no_gap(workload::make_ptrans(4, 2, 0.5, 2, 0));
  no_gap.driver->start();
  no_gap.engine.run_until(100000);
  ASSERT_TRUE(with_gap.driver->done());
  ASSERT_TRUE(no_gap.driver->done());
  EXPECT_EQ(with_gap.driver->stats().completion_cycle,
            no_gap.driver->stats().completion_cycle + 500);
}

TEST(PhaseEngine, DeadLettersCountTowardCompletion) {
  workload::Schedule s;
  workload::PhaseDef p;
  p.name = "dead";
  p.volume_packets = 1;
  p.rate_pkt_node_cycle = 1.0;
  p.destination = [](NodeId src, erapid::util::Rng&) {
    return NodeId{(src.value() + 1) % 4};
  };
  s.phases.push_back(std::move(p));
  erapid::des::Engine engine;
  workload::PhaseEngineConfig pc;
  pc.num_nodes = 4;
  std::unique_ptr<workload::PhaseEngine> driver;
  driver = std::make_unique<workload::PhaseEngine>(
      engine, std::move(s), pc,
      [&](const erapid::router::Packet& pkt, Cycle) {
        // Every packet is abandoned, none delivered.
        engine.schedule(5, [&driver, pkt, &engine] {
          driver->on_dead_letter(pkt, engine.now());
        }, "test.dead");
      });
  driver->start();
  engine.run_until(10000);
  EXPECT_TRUE(driver->done());
  EXPECT_EQ(driver->stats().packets_dead, 4u);
  EXPECT_EQ(driver->stats().packets_delivered, 0u);
}

TEST(PhaseEngine, RejectsMalformedSchedules) {
  erapid::des::Engine engine;
  workload::PhaseEngineConfig pc;
  pc.num_nodes = 4;
  auto inject = [](const erapid::router::Packet&, Cycle) {};
  workload::Schedule empty;
  EXPECT_THROW(workload::PhaseEngine(engine, empty, pc, inject),
               erapid::ModelInvariantError);
  auto bad_split = workload::make_fft(4, 1, 0.5, 1);
  bad_split.phases_per_episode = 3;  // does not divide 2 phases
  EXPECT_THROW(workload::PhaseEngine(engine, std::move(bad_split), pc, inject),
               erapid::ModelInvariantError);
}

// ---- trace driver -----------------------------------------------------------

TEST(TraceDriver, DeadLettersCountTowardCompletion) {
  erapid::traffic::Trace t;
  t.add(0, NodeId{0}, NodeId{1});
  t.add(10, NodeId{1}, NodeId{2});
  t.add(20, NodeId{2}, NodeId{3});
  t.finalize(4);
  erapid::des::Engine engine;
  std::unique_ptr<workload::TraceDriver> driver;
  std::uint64_t injected = 0;
  driver = std::make_unique<workload::TraceDriver>(
      engine, t, 8, 8, [&](const erapid::router::Packet& pkt, Cycle) {
        // The first packet is delivered, the other two abandoned; each
        // resolves 5 cycles after injection.
        const bool delivered = injected++ == 0;
        engine.schedule(5, [&driver, &engine, pkt, delivered] {
          if (delivered) {
            driver->on_delivered(pkt, engine.now());
          } else {
            driver->on_dead_letter(pkt, engine.now());
          }
        }, "test.resolve");
      });
  driver->start();
  engine.run_until(22);  // every event injected, the last one unresolved
  EXPECT_FALSE(driver->done());
  engine.run_until(10000);
  EXPECT_TRUE(driver->done());
  const auto st = driver->stats();
  EXPECT_EQ(st.kind, "trace");
  EXPECT_EQ(st.packets_injected, 3u);
  EXPECT_EQ(st.packets_delivered, 1u);
  EXPECT_EQ(st.packets_dead, 2u);
  EXPECT_EQ(st.bytes_delivered, 64u);
  EXPECT_EQ(st.completion_cycle, 25u);  // the last dead letter's cycle
}

// ---- simulation integration -------------------------------------------------

SimOptions workload_opts(workload::WorkloadKind kind) {
  SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.workload.kind = kind;
  o.workload.episodes = 2;
  o.workload.volume_packets = 4;
  o.workload.phase_rate = 0.6;
  o.workload.horizon_cycles = 150000;
  return o;
}

TEST(WorkloadSim, EveryCompletionBoundedKindCompletesAndIsDeterministic) {
  const workload::WorkloadKind kinds[] = {
      workload::WorkloadKind::AllReduce,    workload::WorkloadKind::AllToAll,
      workload::WorkloadKind::Ptrans,       workload::WorkloadKind::Fft,
      workload::WorkloadKind::RandomAccess, workload::WorkloadKind::Beff,
  };
  for (const auto kind : kinds) {
    SimOptions o = workload_opts(kind);
    const auto a = erapid::sim::to_json(Simulation(o).run());
    const auto b = erapid::sim::to_json(Simulation(o).run());
    EXPECT_EQ(a, b) << "kind " << workload::kind_name(kind)
                    << " not byte-deterministic";
    EXPECT_NE(a.find("\"completed\": true"), std::string::npos)
        << "kind " << workload::kind_name(kind) << " did not complete: " << a;
    EXPECT_NE(a.find("\"kind\": \"" + std::string(workload::kind_name(kind)) + "\""),
              std::string::npos);
  }
}

TEST(WorkloadSim, AllReduceCompletesUnderAllFourModesWithoutDeadlock) {
  SimOptions o = workload_opts(workload::WorkloadKind::AllReduce);
  const auto cmp = erapid::sim::compare_modes(o);
  for (const SimResult* r : {&cmp.np_nb, &cmp.p_nb, &cmp.np_b, &cmp.p_b}) {
    EXPECT_TRUE(r->workload.completed);
    EXPECT_TRUE(r->drained);
    EXPECT_EQ(r->workload.packets_delivered + r->workload.packets_dead,
              r->workload.packets_injected);
    EXPECT_LT(r->end_cycle, o.workload.horizon_cycles);
  }
  // Reconfiguration changes timing but must not change the work done.
  EXPECT_EQ(cmp.np_nb.workload.packets_injected, cmp.p_b.workload.packets_injected);
}

TEST(WorkloadSim, DifferentSeedsChangeStochasticKinds) {
  SimOptions o = workload_opts(workload::WorkloadKind::RandomAccess);
  const auto a = Simulation(o).run();
  o.seed = 99;
  const auto b = Simulation(o).run();
  // Uniform destination draws differ; makespan almost surely differs.
  EXPECT_NE(a.workload.completion_cycle, b.workload.completion_cycle);
}

TEST(WorkloadSim, PhasesKindRunsTheConfiguredSchedule) {
  SimOptions o = workload_opts(workload::WorkloadKind::Phases);
  o.workload.phases = workload::parse_phase_specs("transpose:4,uniform:2:0.3:64");
  const auto r = Simulation(o).run();
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.phases_total, 4u);  // 2 specs x 2 episodes
  EXPECT_EQ(r.workload.phases_completed, 4u);
}

TEST(WorkloadSim, BernoulliReportIsByteIdenticalToPreWorkloadShape) {
  SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.warmup_cycles = 2000;
  o.measure_cycles = 4000;
  const auto json = erapid::sim::to_json(Simulation(o).run());
  EXPECT_EQ(json.find("\"workload\""), std::string::npos);
}

TEST(WorkloadSim, WorkloadDeadlineMonitorFiresOnSlowCollective) {
  SimOptions o = workload_opts(workload::WorkloadKind::AllToAll);
  o.obs.enabled = true;
  o.obs.monitors.workload_deadline = 10;  // impossible deadline
  const auto r = Simulation(o).run();
  EXPECT_TRUE(r.workload.completed);
  EXPECT_GT(r.monitor_violations, 0u);
  bool found = false;
  for (const auto& [name, verdict] : r.monitors) {
    if (name == "workload_deadline") {
      found = true;
      EXPECT_NE(verdict.find("\"ok\": false"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadSim, WorkloadDeadlineMonitorPassesWhenGenerous) {
  SimOptions o = workload_opts(workload::WorkloadKind::AllToAll);
  o.obs.enabled = true;
  o.obs.monitors.workload_deadline = 140000;
  const auto r = Simulation(o).run();
  EXPECT_TRUE(r.workload.completed);
  EXPECT_TRUE(r.monitors_ok());
}

// ---- tenants ----------------------------------------------------------------

SimOptions tenant_opts() {
  SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.warmup_cycles = 2000;
  o.measure_cycles = 6000;
  o.workload.kind = workload::WorkloadKind::Tenants;
  o.workload.tenants = 3;
  o.workload.tenant_load = 0.15;
  o.workload.tenant_mix = {PatternKind::Uniform, PatternKind::Transpose};
  o.workload.session_cycles = 1500;
  o.workload.session_gap_mean = 800;
  return o;
}

TEST(Tenants, FleetRunsSessionsAndAttributesBytes) {
  const auto r = Simulation(tenant_opts()).run();
  EXPECT_EQ(r.workload.kind, "tenants");
  EXPECT_EQ(r.workload.tenants, 3u);
  EXPECT_GT(r.workload.sessions_started, 0u);
  EXPECT_GT(r.workload.sessions_completed, 0u);
  ASSERT_EQ(r.workload.tenant_delivered_bytes.size(), 3u);
  std::uint64_t total = 0;
  for (const auto b : r.workload.tenant_delivered_bytes) total += b;
  EXPECT_EQ(total, r.workload.bytes_delivered);
  EXPECT_GT(total, 0u);
}

TEST(Tenants, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  const SimOptions o = tenant_opts();
  const auto a = erapid::sim::to_json(Simulation(o).run());
  const auto b = erapid::sim::to_json(Simulation(o).run());
  EXPECT_EQ(a, b);
  SimOptions o2 = tenant_opts();
  o2.seed = 77;
  const auto c = erapid::sim::to_json(Simulation(o2).run());
  EXPECT_NE(a, c);
}

TEST(Tenants, TenantCountScalesOfferedTraffic) {
  SimOptions one = tenant_opts();
  one.workload.tenants = 1;
  SimOptions six = tenant_opts();
  six.workload.tenants = 6;
  const auto a = Simulation(one).run();
  const auto b = Simulation(six).run();
  EXPECT_GT(b.packets_generated, a.packets_generated);
}

// ---- trace kind -------------------------------------------------------------

SimOptions trace_opts() {
  SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.workload.kind = workload::WorkloadKind::Trace;
  o.workload.trace_file = erapid::test::data_path("tiny_app.trace");
  o.workload.horizon_cycles = 100000;
  return o;
}

// Calendar events per delivered packet on the tenants point. Flit sends
// and router hand-offs run inside the clock tick, so what is left is about
// one tick per busy cycle plus the optical and workload events (7.5 per
// packet). With one calendar event per flit send and per hand-off batch
// this point ran 30.5, so a per-flit event coming back fails here.
TEST(Tenants, CalendarEventsPerDeliveredPacketStayWithinBudget) {
  Simulation sim(tenant_opts());
  (void)sim.run();
  ASSERT_GT(sim.network().packets_delivered(), 0u);
  const double per_packet = static_cast<double>(sim.engine().events_executed()) /
                            static_cast<double>(sim.network().packets_delivered());
  EXPECT_LT(per_packet, 10.0) << per_packet << " calendar events per packet";
}

TEST(TraceKind, ReplaysCommittedTraceToCompletion) {
  const SimOptions o = trace_opts();
  const auto r = Simulation(o).run();
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.kind, "trace");
  EXPECT_EQ(r.workload.packets_injected, 108u);
  EXPECT_EQ(r.workload.packets_delivered, 108u);
  EXPECT_GT(r.workload.completion_cycle, 650u);
  const auto again = erapid::sim::to_json(Simulation(o).run());
  EXPECT_EQ(erapid::sim::to_json(r), again);
}

// ---- golden fixtures --------------------------------------------------------

// Complete reports of one small run per driver kind beyond Bernoulli (whose
// golden lives in test_determinism.cpp), on both event calendars.

// Ring all-reduce under P-B: the phase-engine path.
TEST(Golden, AllReduceSmallReportMatchesCommittedFixtureExactly) {
  SimOptions o = workload_opts(workload::WorkloadKind::AllReduce);
  o.reconfig.mode = NetworkMode::p_b();
  erapid::test::expect_report_golden(o, "golden_allreduce_small.json", "all-reduce golden");
}

// The tenant fleet with obs on, so the metrics block is pinned too: the
// des.tag.* dispatch counts of the workload.* events, the
// sim.packet_latency_hist histogram and the recorder.* timelines.
TEST(Golden, TenantsSmallReportMatchesCommittedFixtureExactly) {
  SimOptions o = tenant_opts();
  o.obs.enabled = true;
  erapid::test::expect_report_golden(o, "golden_tenants_small.json", "tenants golden");
}

// tiny_app.trace replayed to completion on R(1,4,4).
TEST(Golden, TraceKindSmallReportMatchesCommittedFixtureExactly) {
  erapid::test::expect_report_golden(trace_opts(), "golden_trace_kind_small.json",
                                     "trace-kind golden");
}

}  // namespace
