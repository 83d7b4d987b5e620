// Unit + property tests for system configuration, the static RWA of §2.1,
// lane ownership, and the analytic capacity model.
#include <gtest/gtest.h>

#include "topology/capacity.hpp"
#include "topology/config.hpp"
#include "topology/rwa.hpp"
#include "traffic/patterns.hpp"
#include "util/expect.hpp"

namespace {

using erapid::BoardId;
using erapid::NodeId;
using erapid::WavelengthId;
using erapid::topology::CapacityModel;
using erapid::topology::LaneMap;
using erapid::topology::Rwa;
using erapid::topology::SystemConfig;

SystemConfig paper_config() {
  SystemConfig cfg;  // defaults are the paper's R(1,8,8)
  return cfg;
}

// ---- SystemConfig ------------------------------------------------------

TEST(SystemConfig, PaperDefaultsAre64Nodes) {
  const auto cfg = paper_config();
  EXPECT_EQ(cfg.num_nodes(), 64u);
  EXPECT_EQ(cfg.num_boards_total(), 8u);
  EXPECT_EQ(cfg.num_wavelengths(), 8u);
  EXPECT_EQ(cfg.describe(), "R(1,8,8), 64 nodes");
}

TEST(SystemConfig, ElectricalTimingMatchesTable1) {
  const auto cfg = paper_config();
  EXPECT_DOUBLE_EQ(cfg.cycle_ns().value(), 2.5);      // 400 MHz
  EXPECT_EQ(cfg.cycles_per_flit_electrical(), 4u);    // 64b flit / 16b phit
  EXPECT_EQ(cfg.packet_bits(), 512u);                 // 64 B packet
}

TEST(SystemConfig, OpticalSerializationAtPaperBitRates) {
  const auto cfg = paper_config();
  // 512 bits at 5 Gb/s = 102.4 ns = 40.96 cycles -> 41.
  EXPECT_EQ(cfg.serialization_cycles(erapid::units::GbitsPerSec{5.0}), 41u);
  // At 2.5 Gb/s exactly double the time.
  EXPECT_EQ(cfg.serialization_cycles(erapid::units::GbitsPerSec{2.5}), 82u);
  // 3.3 Gb/s: 512/3.3 = 155.15 ns = 62.06 cycles -> 63.
  EXPECT_EQ(cfg.serialization_cycles(erapid::units::GbitsPerSec{3.3}), 63u);
}

TEST(SystemConfig, NodeBoardMapsRoundTrip) {
  const auto cfg = paper_config();
  for (std::uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    const NodeId node{n};
    const BoardId b = cfg.board_of(node);
    const auto local = cfg.local_index(node);
    EXPECT_EQ(cfg.node_at(b, local), node);
    EXPECT_LT(local, cfg.nodes_per_board);
  }
}

TEST(SystemConfig, ValidateRejectsBrokenConfigs) {
  SystemConfig cfg = paper_config();
  cfg.boards = 1;
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.channel_width_bits = 24;  // 64 % 24 != 0
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.channel_width_bits = 0;  // would divide by zero
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.tx_queue_packets = 0;  // no packet could ever enter a transmit queue
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.flit_bits = 0;  // 0 % width == 0, but a zero-bit flit takes zero cycles
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.flit_bits = 4;  // whole phits of a 4-bit channel, but not a whole byte
  cfg.channel_width_bits = 4;
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  cfg.tx_feed_cycles_per_flit = 0;  // a zero-cycle feed trips the router
  EXPECT_THROW(cfg.validate(), erapid::ModelInvariantError);
  cfg = paper_config();
  EXPECT_NO_THROW(cfg.validate());
}

// ---- RWA ---------------------------------------------------------------

TEST(Rwa, PaperExamplesB4) {
  // §2.1 examples for R(1,4,4): board 1 -> board 0 uses λ1; board 0 ->
  // board 1 uses λ3; board 0 -> board 3 uses λ1 (= B-(d-s) = 4-3).
  Rwa rwa(4);
  EXPECT_EQ(rwa.wavelength_for(BoardId{1}, BoardId{0}).value(), 1u);
  EXPECT_EQ(rwa.wavelength_for(BoardId{0}, BoardId{1}).value(), 3u);
  EXPECT_EQ(rwa.wavelength_for(BoardId{0}, BoardId{3}).value(), 1u);
}

TEST(Rwa, MatchesClosedFormForAllPairs) {
  // w = B-(d-s) for d>s and (s-d) for s>d — both equal (s-d) mod B.
  for (std::uint32_t B : {2u, 4u, 8u, 16u}) {
    Rwa rwa(B);
    for (std::uint32_t s = 0; s < B; ++s) {
      for (std::uint32_t d = 0; d < B; ++d) {
        if (s == d) continue;
        const std::uint32_t expect =
            d > s ? B - (d - s) : s - d;
        EXPECT_EQ(rwa.wavelength_for(BoardId{s}, BoardId{d}).value(), expect);
      }
    }
  }
}

TEST(Rwa, NeverAssignsWavelengthZero) {
  Rwa rwa(8);
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      EXPECT_NE(rwa.wavelength_for(BoardId{s}, BoardId{d}).value(), 0u);
    }
  }
}

TEST(Rwa, OwnerAndDestinationAreInverses) {
  Rwa rwa(8);
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      const auto w = rwa.wavelength_for(BoardId{s}, BoardId{d});
      EXPECT_EQ(rwa.static_owner(BoardId{d}, w), BoardId{s});
      EXPECT_EQ(rwa.static_destination(BoardId{s}, w), BoardId{d});
    }
  }
}

TEST(Rwa, CouplerSeesEveryWavelengthExactlyOnce) {
  // At each destination coupler, the B-1 source boards insert B-1
  // *distinct* wavelengths — the merging property of Figure 1.
  const std::uint32_t B = 8;
  Rwa rwa(B);
  for (std::uint32_t d = 0; d < B; ++d) {
    std::vector<bool> seen(B, false);
    for (std::uint32_t s = 0; s < B; ++s) {
      if (s == d) continue;
      const auto w = rwa.wavelength_for(BoardId{s}, BoardId{d});
      EXPECT_FALSE(seen[w.value()]) << "wavelength collision at coupler " << d;
      seen[w.value()] = true;
    }
    EXPECT_FALSE(seen[0]);  // λ0 stays free
  }
}

TEST(Rwa, SelfCommunicationThrows) {
  Rwa rwa(4);
  EXPECT_THROW((void)rwa.wavelength_for(BoardId{2}, BoardId{2}), erapid::ModelInvariantError);
}

// ---- LaneMap -----------------------------------------------------------

TEST(LaneMap, StaticSeedMatchesRwa) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  for (std::uint32_t d = 0; d < cfg.boards; ++d) {
    for (std::uint32_t s = 0; s < cfg.boards; ++s) {
      if (s == d) continue;
      const auto w = rwa.wavelength_for(BoardId{s}, BoardId{d});
      EXPECT_EQ(map.owner(BoardId{d}, w), BoardId{s});
      EXPECT_EQ(map.lane_count(BoardId{s}, BoardId{d}), 1u);
    }
    EXPECT_TRUE(map.is_free(BoardId{d}, WavelengthId{0}));
  }
  EXPECT_EQ(map.lit_count(), cfg.boards * (cfg.boards - 1));
}

TEST(LaneMap, GrantAndReleaseRoundTrip) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  map.grant(BoardId{3}, WavelengthId{0}, BoardId{1});
  EXPECT_EQ(map.owner(BoardId{3}, WavelengthId{0}), BoardId{1});
  EXPECT_EQ(map.lane_count(BoardId{1}, BoardId{3}), 2u);
  map.release(BoardId{3}, WavelengthId{0});
  EXPECT_TRUE(map.is_free(BoardId{3}, WavelengthId{0}));
}

TEST(LaneMap, DoubleGrantIsWavelengthCollision) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  map.grant(BoardId{3}, WavelengthId{0}, BoardId{1});
  EXPECT_THROW(map.grant(BoardId{3}, WavelengthId{0}, BoardId{2}),
               erapid::ModelInvariantError);
}

// Sanitizer builds intercept abort and break gtest's death-test forking;
// the invariant itself is still exercised by DoubleGrantIsWavelengthCollision.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ERAPID_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ERAPID_SANITIZED 1
#endif
#endif

// Two boards driving one (coupler, wavelength) pair is a physical
// impossibility, so model code that swallows ModelInvariantError (noexcept
// protocol callbacks, destructor paths) must still die, not limp on with a
// corrupted ownership matrix: the throw escalates to std::terminate.
TEST(LaneMapDeathTest, WavelengthCollisionEscalatesToAbort) {
#if defined(ERAPID_SANITIZED)
  GTEST_SKIP() << "death test skipped under sanitizers";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  map.grant(BoardId{3}, WavelengthId{0}, BoardId{1});
  auto drive_second_laser = [&]() noexcept {
    map.grant(BoardId{3}, WavelengthId{0}, BoardId{2});
  };
  EXPECT_DEATH(drive_second_laser(), "wavelength collision");
#endif
}

TEST(LaneMap, FailedLaneIsEvictedAndUngrantable) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  const auto w = rwa.wavelength_for(BoardId{1}, BoardId{3});
  ASSERT_EQ(map.owner(BoardId{3}, w), BoardId{1});

  map.mark_failed(BoardId{3}, w);
  EXPECT_TRUE(map.is_failed(BoardId{3}, w));
  EXPECT_FALSE(map.owner(BoardId{3}, w).valid());
  EXPECT_EQ(map.failed_count(), 1u);
  EXPECT_EQ(map.lit_count(), cfg.boards * (cfg.boards - 1) - 1);
  EXPECT_THROW(map.grant(BoardId{3}, w, BoardId{1}), erapid::ModelInvariantError);

  // reset_static must re-seed around the dead lane, not resurrect it.
  map.reset_static();
  EXPECT_TRUE(map.is_failed(BoardId{3}, w));
  EXPECT_FALSE(map.owner(BoardId{3}, w).valid());
}

TEST(LaneMap, ReleaseOfDarkLaneThrows) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  EXPECT_THROW(map.release(BoardId{3}, WavelengthId{0}), erapid::ModelInvariantError);
}

TEST(LaneMap, GrantToSelfThrows) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  EXPECT_THROW(map.grant(BoardId{3}, WavelengthId{0}, BoardId{3}),
               erapid::ModelInvariantError);
}

TEST(LaneMap, LanesOfEnumeratesOwnership) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  map.grant(BoardId{5}, WavelengthId{0}, BoardId{2});
  const auto lanes = map.lanes_of(BoardId{2}, BoardId{5});
  ASSERT_EQ(lanes.size(), 2u);  // static + granted λ0
}

TEST(LaneMap, ResetStaticRestoresBaseline) {
  const auto cfg = paper_config();
  Rwa rwa(cfg.boards);
  LaneMap map(cfg, rwa);
  map.grant(BoardId{3}, WavelengthId{0}, BoardId{1});
  map.reset_static();
  EXPECT_TRUE(map.is_free(BoardId{3}, WavelengthId{0}));
  EXPECT_EQ(map.lit_count(), cfg.boards * (cfg.boards - 1));
}

// ---- CapacityModel -----------------------------------------------------

TEST(Capacity, LaneServiceRateMatchesSerialization) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  EXPECT_DOUBLE_EQ(cm.lane_service_rate(erapid::units::GbitsPerSec{5.0}), 1.0 / 41.0);
}

TEST(Capacity, InjectionLimitIs32CyclesPerPacket) {
  CapacityModel cm(paper_config());
  EXPECT_DOUBLE_EQ(cm.injection_limit(), 1.0 / 32.0);
}

TEST(Capacity, UniformCapacityIsLaneBound) {
  // Lane bound: (1/41) * 63/64 ≈ 0.0240 < injection 0.03125.
  CapacityModel cm(paper_config());
  const double nc = cm.uniform_capacity();
  EXPECT_NEAR(nc, (1.0 / 41.0) * 63.0 / 64.0, 1e-12);
  EXPECT_LT(nc, cm.injection_limit());
}

TEST(Capacity, UniformDemandMatchesEnumeration) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  const auto analytic = cm.uniform_board_demand();
  for (std::uint32_t s = 0; s < cfg.boards; ++s) {
    for (std::uint32_t d = 0; d < cfg.boards; ++d) {
      const double v = analytic[s * cfg.boards + d];
      if (s == d) {
        EXPECT_DOUBLE_EQ(v, 0.0);
      } else {
        EXPECT_NEAR(v, 64.0 / 63.0, 1e-12);  // D*D/(N-1)
      }
    }
  }
}

TEST(Capacity, ComplementDemandConcentratesOnOneFlow) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  erapid::traffic::TrafficPattern pat(erapid::traffic::PatternKind::Complement,
                                      cfg.num_nodes());
  const auto demand = cm.board_demand([&](NodeId n) { return pat.permute(n); });
  for (std::uint32_t s = 0; s < cfg.boards; ++s) {
    for (std::uint32_t d = 0; d < cfg.boards; ++d) {
      const double v = demand[s * cfg.boards + d];
      if (d == cfg.boards - 1 - s) {
        EXPECT_DOUBLE_EQ(v, 8.0);  // all D nodes of s target board B-1-s
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
}

TEST(Capacity, ComplementStaticSaturatesEightTimesEarlier) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  erapid::traffic::TrafficPattern pat(erapid::traffic::PatternKind::Complement,
                                      cfg.num_nodes());
  const auto demand = cm.board_demand([&](NodeId n) { return pat.permute(n); });
  const double sat = cm.static_saturation(demand);
  // One lane serving all 8 nodes of a board: (1/41)/8.
  EXPECT_NEAR(sat, 1.0 / 41.0 / 8.0, 1e-12);
  EXPECT_LT(sat, cm.uniform_capacity() * 0.2);
}

TEST(Capacity, ZeroLanesOnDemandedFlowMeansZeroSaturation) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  const auto demand = cm.uniform_board_demand();
  const double sat = cm.saturation_injection(
      demand, [](BoardId, BoardId) { return 0u; });
  EXPECT_DOUBLE_EQ(sat, 0.0);
}

TEST(Capacity, MoreLanesRaiseSaturationUntilInjectionBound) {
  const auto cfg = paper_config();
  CapacityModel cm(cfg);
  erapid::traffic::TrafficPattern pat(erapid::traffic::PatternKind::Complement,
                                      cfg.num_nodes());
  const auto demand = cm.board_demand([&](NodeId n) { return pat.permute(n); });
  const double sat1 = cm.static_saturation(demand);
  const double sat8 = cm.saturation_injection(
      demand, [](BoardId, BoardId) { return 8u; });
  EXPECT_NEAR(sat8 / sat1, 8.0, 1e-9);
  const double sat100 = cm.saturation_injection(
      demand, [](BoardId, BoardId) { return 100u; });
  EXPECT_DOUBLE_EQ(sat100, cm.injection_limit());  // electrically bound
}

}  // namespace
