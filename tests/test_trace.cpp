// Unit + integration tests for trace-driven traffic: format round-trip,
// synthetic generators, and end-to-end replay through the network.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "des/engine.hpp"
#include "sim/network.hpp"
#include "traffic/trace.hpp"
#include "workload/driver.hpp"

namespace {

using erapid::Cycle;
using erapid::NodeId;
using erapid::traffic::make_alltoall_trace;
using erapid::traffic::make_master_worker_trace;
using erapid::traffic::make_stencil_trace;
using erapid::traffic::Trace;
using erapid::workload::TraceDriver;

TEST(Trace, AddAndFinalizeSortsStably) {
  Trace t;
  t.add(50, NodeId{0}, NodeId{1});
  t.add(10, NodeId{1}, NodeId{2});
  t.add(50, NodeId{2}, NodeId{3});  // same cycle as the first: must stay after
  t.finalize(8);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.events()[0].cycle, 10u);
  EXPECT_EQ(t.events()[1].src, NodeId{0});
  EXPECT_EQ(t.events()[2].src, NodeId{2});
  EXPECT_EQ(t.duration(), 50u);
}

TEST(Trace, FinalizeRejectsBadNodes) {
  Trace t;
  t.add(1, NodeId{0}, NodeId{99});
  EXPECT_THROW(t.finalize(8), erapid::ModelInvariantError);
  Trace self;
  self.add(1, NodeId{3}, NodeId{3});
  EXPECT_THROW(self.finalize(8), erapid::ModelInvariantError);
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t;
  t.add(5, NodeId{1}, NodeId{2});
  t.add(10, NodeId{3}, NodeId{0});
  t.finalize(4);
  std::stringstream ss;
  t.save(ss);
  const Trace back = Trace::load(ss, 4);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.events()[0], t.events()[0]);
  EXPECT_EQ(back.events()[1], t.events()[1]);
}

TEST(Trace, LoadSkipsCommentsAndBlankLines) {
  std::stringstream ss("# erapid-trace v1\n\n# comment\n3 0 1\n");
  const Trace t = Trace::load(ss, 2);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].cycle, 3u);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream ss("not a trace line\n");
  EXPECT_THROW(Trace::load(ss, 4), erapid::ModelInvariantError);
}

TEST(Trace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "erapid_trace_test.trace";
  const Trace t = make_stencil_trace(8, 2, 100);
  t.save_file(path);
  const Trace back = Trace::load_file(path, 8);
  EXPECT_EQ(back.size(), t.size());
  std::remove(path.c_str());
}

TEST(Trace, SaveToFullDiskThrows) {
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  EXPECT_THROW(make_stencil_trace(8, 2, 100).save_file("/dev/full"),
               erapid::ModelInvariantError);
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(Trace::load_file("/nonexistent/erapid.trace", 8),
               erapid::ModelInvariantError);
}

// ---- synthetic generators ------------------------------------------------

TEST(TraceGen, StencilCountsAndLocality) {
  const Trace t = make_stencil_trace(8, 3, 100);
  // Per step: 2*(N-1) messages (each interior pair both ways).
  EXPECT_EQ(t.size(), 3u * 2u * 7u);
  for (const auto& e : t.events()) {
    const auto d = static_cast<std::int64_t>(e.dst.value()) -
                   static_cast<std::int64_t>(e.src.value());
    EXPECT_TRUE(d == 1 || d == -1);
  }
  EXPECT_EQ(t.duration(), 200u);
}

TEST(TraceGen, AlltoallCoversEveryPair) {
  const Trace t = make_alltoall_trace(4, 1, 100);
  EXPECT_EQ(t.size(), 4u * 3u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& e : t.events()) pairs.insert({e.src.value(), e.dst.value()});
  EXPECT_EQ(pairs.size(), 12u);
}

TEST(TraceGen, AlltoallStaggerSpreadsBurst) {
  const Trace t = make_alltoall_trace(4, 1, 100, /*stagger=*/5);
  Cycle max_cycle = 0;
  for (const auto& e : t.events()) max_cycle = std::max(max_cycle, e.cycle);
  EXPECT_EQ(max_cycle, 10u);  // (N-2) * stagger
}

TEST(TraceGen, MasterWorkerAlternatesScatterGather) {
  const Trace t = make_master_worker_trace(4, 2, 500);
  EXPECT_EQ(t.size(), 2u * 2u * 3u);
  // First 3 events scatter from node 0; next 3 gather back.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t.events()[i].src, NodeId{0});
  for (int i = 3; i < 6; ++i) EXPECT_EQ(t.events()[i].dst, NodeId{0});
  EXPECT_EQ(t.events()[3].cycle, 500u);
}

// ---- replay through the network --------------------------------------------

TEST(TraceReplay, AllEventsDeliveredThroughNetwork) {
  erapid::topology::SystemConfig cfg;
  cfg.boards = 4;
  cfg.nodes_per_board = 4;
  erapid::reconfig::ReconfigConfig rc;
  rc.mode = erapid::reconfig::NetworkMode::p_b();

  erapid::des::Engine engine;
  erapid::sim::Network net(engine, cfg, rc);
  const Trace t = make_alltoall_trace(cfg.num_nodes(), 3, 2000);
  TraceDriver driver(engine, t, cfg.packet_flits, cfg.flit_bits / 8,
                     [&net](const erapid::router::Packet& p, Cycle now) {
                       net.inject(p, now);
                     });
  net.set_delivery_callback([&driver](const erapid::router::Packet& p, Cycle now) {
    driver.on_delivered(p, now);
  });
  net.start();
  driver.start();
  engine.run_until(t.duration() + 100000);
  ASSERT_TRUE(driver.done());
  const auto st = driver.stats();
  EXPECT_EQ(st.packets_injected, t.size());
  EXPECT_EQ(st.packets_delivered, t.size());
  EXPECT_EQ(st.bytes_delivered, t.size() * cfg.packet_flits * (cfg.flit_bits / 8));
  EXPECT_GE(st.completion_cycle, t.duration());
}

}  // namespace
