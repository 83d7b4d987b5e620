// Shared test fixtures and golden values.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "optical/lane.hpp"
#include "optical/receiver.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"

namespace erapid::test {

/// Path of a committed fixture under tests/data.
inline std::string data_path(std::string_view name) {
  return std::string(ERAPID_TEST_DATA_DIR) + "/" + std::string(name);
}

/// Compares `actual` byte for byte with the committed fixture `name`. With
/// ERAPID_REGEN_GOLDEN set the test rewrites the fixture from `actual` and
/// skips instead. Tolerance is zero: any diff means behaviour changed —
/// regenerate only when the change is intended, and call it out in the
/// commit message.
inline void expect_golden(const std::string& actual, std::string_view name,
                          std::string_view what) {
  const std::string path = data_path(name);
  if (std::getenv("ERAPID_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path << " (regenerate with ERAPID_REGEN_GOLDEN=1)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(actual, ss.str())
      << what << " drifted from " << path
      << " — if the change is intended, regenerate with ERAPID_REGEN_GOLDEN=1 and call it "
         "out in the commit message";
}

/// Runs `o` and compares the JSON report with the fixture `name`.
inline void expect_report_golden(const sim::SimOptions& o, std::string_view name,
                                 std::string_view what) {
  expect_golden(sim::to_json(sim::Simulation(o).run()) + "\n", name, what);
}

/// A two-board lane map with null terminals: enough to build a
/// DegradeController for the checks that fire before it touches a lane.
struct ControllerTargets {
  topology::SystemConfig sys = [] {
    topology::SystemConfig c;
    c.boards = 2;
    c.nodes_per_board = 1;
    return c;
  }();
  topology::Rwa rwa{sys.num_boards_total()};
  topology::LaneMap map{sys, rwa};
  std::vector<optical::OpticalTerminal*> terms =
      std::vector<optical::OpticalTerminal*>(2, nullptr);
};

/// Minimal optical rig: a 1-input router with one ejection port, one
/// receiver on that input, and one lane shooting packets at the receiver.
struct LaneRig {
  topology::SystemConfig cfg;
  des::Engine engine;
  des::ClockDomain domain{engine};
  power::LinkPowerModel pw;
  power::EnergyMeter meter{2};
  std::unique_ptr<router::Router> router;
  std::unique_ptr<router::EjectionUnit> ejection;
  std::unique_ptr<optical::Receiver> rx;
  std::unique_ptr<optical::Lane> lane;
  std::vector<router::Packet> delivered;

  LaneRig() {
    cfg.boards = 2;
    cfg.nodes_per_board = 1;
    router = std::make_unique<router::Router>(
        engine, domain, "rig", 1, cfg.num_vcs, cfg.vc_buffer_flits, 1,
        [](const router::Flit&) { return 0u; });
    ejection = std::make_unique<router::EjectionUnit>(
        *router, cfg.num_vcs,
        [this](const router::Packet& p, Cycle) { delivered.push_back(p); });
    router::OutputPortConfig opc;
    opc.sink = ejection.get();
    opc.vcs = cfg.num_vcs;
    opc.credits_per_vc = cfg.vc_buffer_flits;
    opc.cycles_per_flit = 4;
    ejection->bind(router->add_output(opc));
    rx = std::make_unique<optical::Receiver>(engine, *router, 0, cfg.num_vcs,
                                             cfg.vc_buffer_flits, 4,
                                             cfg.rx_queue_packets);
    lane = std::make_unique<optical::Lane>(
        engine, cfg, pw, meter, BoardId{0}, topology::LaneRef{BoardId{1}, WavelengthId{2}},
        rx.get());
  }

  static router::Packet packet(std::uint64_t seq) {
    router::Packet p;
    p.seq = seq;
    p.src = NodeId{0};
    p.dst = NodeId{0};
    p.flits = 8;
    return p;
  }
};

// Golden regression values for test_fuzz.cpp's Golden suite: the exact
// deterministic output of R(1,4,4), uniform, load 0.5, seed 1, P-B,
// warmup 4000 / measure 8000 / drain 60000.
//
// Policy: these may ONLY be updated when a change to model *timing or
// policy semantics* is intended; update by running the test and copying
// the reported values, and say so in the commit message. A build/refactor
// that changes them unintentionally is a regression.
inline constexpr std::uint64_t kGoldenGenerated = 2292;
inline constexpr std::uint64_t kGoldenDelivered = 1424;
inline constexpr double kGoldenLatency = 283.26963906581761;
inline constexpr double kGoldenPowerMw = 266.87280000000038;

}  // namespace erapid::test
