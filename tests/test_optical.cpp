// Unit tests for the optical layer: lane state machine (DVS/DLS/
// transitions), receiver flow control, and the terminal scheduler.
#include <gtest/gtest.h>

#include <memory>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "optical/lane.hpp"
#include "optical/receiver.hpp"
#include "optical/terminal.hpp"
#include "power/energy_meter.hpp"
#include "power/link_power.hpp"
#include "router/router.hpp"
#include "sim/network.hpp"
#include "tests_support.hpp"
#include "topology/config.hpp"

namespace {

using erapid::BoardId;
using erapid::Cycle;
using erapid::NodeId;
using erapid::WavelengthId;
using erapid::des::ClockDomain;
using erapid::des::Engine;
using erapid::optical::Lane;
using erapid::optical::Receiver;
using erapid::power::EnergyMeter;
using erapid::power::LinkPowerModel;
using erapid::power::PowerLevel;
using erapid::router::Packet;
using erapid::topology::LaneRef;
using erapid::topology::SystemConfig;

// Minimal rig (shared with the fuzz tests): a 1-input router with one
// ejection port, one receiver on that input, and one lane shooting
// packets at the receiver.
using LaneRig = erapid::test::LaneRig;

// ---- Lane state machine ---------------------------------------------------

TEST(Lane, StartsDisabledAndDark) {
  LaneRig rig;
  EXPECT_FALSE(rig.lane->enabled());
  EXPECT_EQ(rig.lane->level(), PowerLevel::Off);
  EXPECT_FALSE(rig.lane->available(0));
  EXPECT_FALSE(rig.lane->can_wake());
}

TEST(Lane, EnablePaysWakeTransition) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  EXPECT_TRUE(rig.lane->enabled());
  EXPECT_EQ(rig.lane->level(), PowerLevel::High);
  EXPECT_FALSE(rig.lane->available(0));   // paused for 65 cycles
  EXPECT_TRUE(rig.lane->paused(64));
  EXPECT_TRUE(rig.lane->available(65));
}

TEST(Lane, ReadyCallbackFiresAfterWake) {
  LaneRig rig;
  Cycle ready_at = 0;
  rig.lane->set_ready_callback([&](Cycle now) { ready_at = now; });
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(100);
  EXPECT_EQ(ready_at, 65u);
}

TEST(Lane, TransmitOccupiesSerializationTime) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  // 512 bits at 5 Gb/s = 41 cycles.
  EXPECT_TRUE(rig.lane->transmitting(65 + 40));
  EXPECT_FALSE(rig.lane->transmitting(65 + 41));
  EXPECT_FALSE(rig.lane->available(70));
  rig.engine.run_until(1000);
  ASSERT_EQ(rig.delivered.size(), 1u);
}

TEST(Lane, DeliveryIncludesFiberDelay) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  // Arrival at receiver = 65 + 41 (serialization) + 8 (fiber); then the
  // packet must still cross the RX injector and router before ejecting.
  rig.engine.run_until(65 + 41 + 8 - 1);
  EXPECT_EQ(rig.rx->packets_received(), 0u);
  rig.engine.run_until(65 + 41 + 8);
  EXPECT_EQ(rig.rx->packets_received(), 1u);
}

TEST(Lane, SlowerLevelsSerializeLonger) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::Low);  // 2.5 Gb/s -> 82 cycles
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  EXPECT_TRUE(rig.lane->transmitting(65 + 81));
  EXPECT_FALSE(rig.lane->transmitting(65 + 82));
}

TEST(Lane, BusyCounterTracksSerialization) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  EXPECT_EQ(rig.lane->busy_counter().busy_cycles(), 41u);
}

TEST(Lane, LevelChangeWhenIdleAppliesWithPause) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(100);
  rig.lane->request_level(PowerLevel::Low, 100);
  EXPECT_EQ(rig.lane->level(), PowerLevel::Low);
  EXPECT_FALSE(rig.lane->available(100));      // 65-cycle voltage transition
  EXPECT_TRUE(rig.lane->available(165));
  EXPECT_EQ(rig.lane->transitions(), 2u);      // wake + DVS
}

TEST(Lane, LevelChangeMidPacketDefersToCompletion) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  rig.lane->request_level(PowerLevel::Mid, 70);
  EXPECT_EQ(rig.lane->level(), PowerLevel::High);  // still the old level
  rig.engine.run_until(65 + 41);                   // packet completes
  EXPECT_EQ(rig.lane->level(), PowerLevel::Mid);
}

TEST(Lane, DisableWhenIdleIsImmediate) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(100);
  Cycle dark_at = 0;
  rig.lane->disable(100, [&](Cycle now) { dark_at = now; });
  EXPECT_FALSE(rig.lane->enabled());
  EXPECT_EQ(rig.lane->level(), PowerLevel::Off);
  EXPECT_EQ(dark_at, 100u);
}

TEST(Lane, DisableMidPacketDrainsFirst) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  ASSERT_TRUE(rig.lane->try_transmit(LaneRig::packet(1), 65));
  Cycle dark_at = 0;
  rig.lane->disable(70, [&](Cycle now) { dark_at = now; });
  EXPECT_TRUE(rig.lane->enabled());  // still draining
  rig.engine.run_until(200);
  EXPECT_FALSE(rig.lane->enabled());
  EXPECT_EQ(dark_at, 65u + 41u);
  ASSERT_EQ(rig.delivered.size(), 1u);  // in-flight packet was not lost
}

TEST(Lane, PowerAccountingFollowsLevel) {
  LaneRig rig;
  EXPECT_DOUBLE_EQ(rig.meter.instantaneous_mw().value(), 0.0);
  rig.lane->enable(0, PowerLevel::High);
  EXPECT_DOUBLE_EQ(rig.meter.instantaneous_mw().value(), 43.03);
  rig.engine.run_until(100);
  rig.lane->request_level(PowerLevel::Low, 100);
  EXPECT_NEAR(rig.meter.instantaneous_mw().value(), 8.60, 1e-9);
  rig.lane->disable(100);
  EXPECT_NEAR(rig.meter.instantaneous_mw().value(), 0.0, 1e-9);
}

TEST(Lane, TransmitWhilePausedRefused) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  EXPECT_FALSE(rig.lane->try_transmit(LaneRig::packet(1), 10));
}

TEST(Lane, DvsOnForeignLaneThrows) {
  LaneRig rig;
  EXPECT_THROW(rig.lane->request_level(PowerLevel::Low, 0), erapid::ModelInvariantError);
  EXPECT_THROW(rig.lane->disable(0), erapid::ModelInvariantError);
}

// ---- Receiver flow control -------------------------------------------------

TEST(Receiver, ReservationsBoundedByCapacity) {
  LaneRig rig;
  const auto cap = rig.rx->capacity();
  for (std::uint32_t i = 0; i < cap; ++i) EXPECT_TRUE(rig.rx->reserve_slot());
  EXPECT_FALSE(rig.rx->reserve_slot());
  EXPECT_EQ(rig.rx->free_slots(), 0u);
}

TEST(Receiver, DeliveryWithoutReservationThrows) {
  LaneRig rig;
  EXPECT_THROW(rig.rx->deliver(LaneRig::packet(1), 0), erapid::ModelInvariantError);
}

TEST(Receiver, SlotFreedAfterPacketEntersRouter) {
  LaneRig rig;
  int freed = 0;
  rig.rx->set_slot_freed_callback([&](Cycle) { ++freed; });
  ASSERT_TRUE(rig.rx->reserve_slot());
  rig.rx->deliver(LaneRig::packet(1), 0);
  rig.engine.run_until(500);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(rig.rx->free_slots(), rig.rx->capacity());
  EXPECT_EQ(rig.delivered.size(), 1u);
}

TEST(Receiver, BackpressuresLaneWhenFull) {
  LaneRig rig;
  rig.lane->enable(0, PowerLevel::High);
  rig.engine.run_until(65);
  // Exhaust RX slots by reserving them out-of-band.
  for (std::uint32_t i = 0; i < rig.rx->capacity(); ++i) {
    ASSERT_TRUE(rig.rx->reserve_slot());
  }
  EXPECT_FALSE(rig.lane->try_transmit(LaneRig::packet(1), 65));
}

// ---- Terminal scheduler through a tiny network ------------------------------

struct NetRig {
  SystemConfig cfg;
  erapid::reconfig::ReconfigConfig rc;
  Engine engine;
  std::unique_ptr<erapid::sim::Network> net;
  std::vector<Packet> delivered;

  explicit NetRig(std::uint32_t boards = 2, std::uint32_t nodes = 2) {
    cfg.boards = boards;
    cfg.nodes_per_board = nodes;
    net = std::make_unique<erapid::sim::Network>(engine, cfg, rc);
    net->set_delivery_callback([this](const Packet& p, Cycle) { delivered.push_back(p); });
    net->start();
  }

  Packet packet(std::uint64_t seq, std::uint32_t src, std::uint32_t dst) {
    Packet p;
    p.seq = seq;
    p.src = NodeId{src};
    p.dst = NodeId{dst};
    p.flits = cfg.packet_flits;
    p.created = engine.now();
    return p;
  }
};

TEST(Terminal, LocalPacketNeverTouchesOptical) {
  NetRig rig;
  rig.net->inject(rig.packet(1, 0, 1), 0);  // both on board 0
  rig.engine.run_until(2000);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.net->receiver(BoardId{0}, WavelengthId{1}).packets_received(), 0u);
  EXPECT_EQ(rig.net->receiver(BoardId{1}, WavelengthId{1}).packets_received(), 0u);
}

TEST(Terminal, RemotePacketCrossesitsStaticLane) {
  NetRig rig;
  rig.net->inject(rig.packet(1, 0, 2), 0);  // board 0 -> board 1
  rig.engine.run_until(5000);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].seq, 1u);
  // Static RWA for B=2: board 0 -> board 1 uses wavelength (0-1) mod 2 = 1.
  EXPECT_EQ(rig.net->receiver(BoardId{1}, WavelengthId{1}).packets_received(), 1u);
}

TEST(Terminal, ManyPacketsAllDelivered) {
  NetRig rig(4, 2);
  std::uint64_t seq = 1;
  for (std::uint32_t src = 0; src < rig.cfg.num_nodes(); ++src) {
    for (std::uint32_t dst = 0; dst < rig.cfg.num_nodes(); ++dst) {
      if (src == dst) continue;
      rig.net->inject(rig.packet(seq++, src, dst), 0);
    }
  }
  rig.engine.run_until(100000);
  EXPECT_EQ(rig.delivered.size(), seq - 1);
}

TEST(Terminal, FlowQueueDrainsInOrderPerFlow) {
  NetRig rig;
  for (std::uint64_t i = 0; i < 10; ++i) rig.net->inject(rig.packet(i + 1, 0, 2), 0);
  rig.engine.run_until(50000);
  ASSERT_EQ(rig.delivered.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(rig.delivered[i].seq, i + 1);
}

TEST(Terminal, GrantedSecondLaneIncreasesConcurrency) {
  NetRig rig;
  auto& lm = rig.net->lane_map();
  // Give board 0 the dark λ0 lane toward board 1 (in addition to λ1).
  lm.grant(BoardId{1}, WavelengthId{0}, BoardId{0});
  rig.net->terminal(BoardId{0}).apply_grant(BoardId{1}, WavelengthId{0},
                                            PowerLevel::High, 0);
  for (std::uint64_t i = 0; i < 8; ++i) rig.net->inject(rig.packet(i + 1, 0, 2), 0);
  rig.engine.run_until(50000);
  EXPECT_EQ(rig.delivered.size(), 8u);
  // Both wavelength receivers saw traffic (scheduler spread the flow).
  EXPECT_GT(rig.net->receiver(BoardId{1}, WavelengthId{0}).packets_received(), 0u);
  EXPECT_GT(rig.net->receiver(BoardId{1}, WavelengthId{1}).packets_received(), 0u);
}

TEST(Terminal, HarvestReportsUtilization) {
  NetRig rig;
  for (std::uint64_t i = 0; i < 4; ++i) rig.net->inject(rig.packet(i + 1, 0, 2), 0);
  rig.engine.run_until(2000);
  std::vector<erapid::optical::LaneSnapshot> lanes;
  std::vector<erapid::optical::FlowSnapshot> flows;
  rig.net->terminal(BoardId{0}).harvest(0, 2000, lanes, flows);
  // One remote board -> one flow entry, W lane entries.
  ASSERT_EQ(flows.size(), 1u);
  ASSERT_EQ(lanes.size(), rig.cfg.num_wavelengths());
  bool some_util = false;
  for (const auto& l : lanes) some_util = some_util || l.link_util > 0.0;
  EXPECT_TRUE(some_util);
}

TEST(Terminal, RehomeIntoFullQueueKeepsBufferUtilARatio) {
  // fail_lane re-homes the aborted packet at the head of its flow queue even
  // when that queue is full, so it holds one packet over capacity. The DPM
  // policy requires Buffer_util in [0, 1]: the harvested window saturates.
  NetRig rig;
  auto& term = rig.net->terminal(BoardId{0});
  const BoardId dest{1};
  const WavelengthId w{1};  // static RWA for B=2: board 0 -> board 1 on λ1
  for (std::uint64_t i = 0; i < 64; ++i) {
    rig.net->inject(rig.packet(i + 1, static_cast<std::uint32_t>(i % 2), 2), 0);
  }
  Cycle t = 0;
  while (term.flow_queue_size(dest) < rig.cfg.tx_queue_packets ||
         !term.lane(dest, w).transmitting(t)) {
    ASSERT_LT(t, 100000u) << "flow queue never filled behind a busy lane";
    rig.engine.run_until(++t);
  }
  std::vector<erapid::optical::LaneSnapshot> lanes;
  std::vector<erapid::optical::FlowSnapshot> flows;
  term.harvest(0, t, lanes, flows);  // open a fresh window at t
  ASSERT_EQ(term.fail_lane(dest, w, t), 1u);
  EXPECT_EQ(term.flow_queue_size(dest), rig.cfg.tx_queue_packets + 1);
  // λ1 was the flow's only lane, so the queue stays one over capacity.
  rig.engine.run_until(t + 1000);
  term.harvest(t, t + 1000, lanes, flows);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_LE(flows[0].buffer_util, 1.0);
  EXPECT_EQ(flows[0].queued, rig.cfg.tx_queue_packets + 1);
}

}  // namespace
