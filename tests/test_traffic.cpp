// Unit + property tests for traffic patterns and the Bernoulli source.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "des/engine.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace {

using erapid::Cycle;
using erapid::NodeId;
using erapid::des::Engine;
using erapid::router::Packet;
using erapid::traffic::NodeSource;
using erapid::traffic::parse_pattern;
using erapid::traffic::pattern_name;
using erapid::traffic::PatternKind;
using erapid::traffic::TrafficPattern;
using erapid::util::Rng;

// ---- pattern parsing --------------------------------------------------

TEST(Patterns, NamesRoundTrip) {
  for (auto k : {PatternKind::Uniform, PatternKind::Complement, PatternKind::Butterfly,
                 PatternKind::PerfectShuffle, PatternKind::BitReverse,
                 PatternKind::Transpose, PatternKind::Tornado, PatternKind::Neighbor,
                 PatternKind::Hotspot}) {
    const auto parsed = parse_pattern(pattern_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_pattern("nonsense").has_value());
}

// ---- paper's definitions on 64 nodes (n = 6 bits) -----------------------

TEST(Patterns, ComplementFlipsAllBits) {
  TrafficPattern p(PatternKind::Complement, 64);
  EXPECT_EQ(p.permute(NodeId{0}).value(), 63u);
  EXPECT_EQ(p.permute(NodeId{63}).value(), 0u);
  EXPECT_EQ(p.permute(NodeId{0b101010}).value(), 0b010101u);
}

TEST(Patterns, ButterflySwapsMsbAndLsb) {
  TrafficPattern p(PatternKind::Butterfly, 64);
  // a5..a0 = 100000 -> 000001
  EXPECT_EQ(p.permute(NodeId{0b100000}).value(), 0b000001u);
  EXPECT_EQ(p.permute(NodeId{0b000001}).value(), 0b100000u);
  // middle bits unchanged
  EXPECT_EQ(p.permute(NodeId{0b011110}).value(), 0b011110u);
}

TEST(Patterns, PerfectShuffleRotatesLeft) {
  TrafficPattern p(PatternKind::PerfectShuffle, 64);
  // a5..a0 -> a4..a0,a5
  EXPECT_EQ(p.permute(NodeId{0b100000}).value(), 0b000001u);
  EXPECT_EQ(p.permute(NodeId{0b010101}).value(), 0b101010u);
}

TEST(Patterns, BitReverseIsInvolution) {
  TrafficPattern p(PatternKind::BitReverse, 64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(p.permute(p.permute(NodeId{i})), NodeId{i});
  }
}

TEST(Patterns, TransposeSwapsHalves) {
  TrafficPattern p(PatternKind::Transpose, 64);
  EXPECT_EQ(p.permute(NodeId{0b111000}).value(), 0b000111u);
}

TEST(Patterns, TornadoMovesHalfwayAround) {
  TrafficPattern p(PatternKind::Tornado, 64);
  EXPECT_EQ(p.permute(NodeId{0}).value(), 32u);
  EXPECT_EQ(p.permute(NodeId{40}).value(), (40u + 32u) % 64u);
}

TEST(Patterns, NeighborIsPlusOne) {
  TrafficPattern p(PatternKind::Neighbor, 64);
  EXPECT_EQ(p.permute(NodeId{63}).value(), 0u);
  EXPECT_EQ(p.permute(NodeId{5}).value(), 6u);
}

// Property: every deterministic bit-permutation is a bijection.
class PermutationBijectionTest : public ::testing::TestWithParam<PatternKind> {};

TEST_P(PermutationBijectionTest, IsBijective) {
  for (std::uint32_t n : {16u, 64u, 256u}) {
    TrafficPattern p(GetParam(), n);
    std::set<std::uint32_t> image;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto d = p.permute(NodeId{i});
      EXPECT_LT(d.value(), n);
      image.insert(d.value());
    }
    EXPECT_EQ(image.size(), n) << pattern_name(GetParam()) << " not bijective at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPermutations, PermutationBijectionTest,
                         ::testing::Values(PatternKind::Complement, PatternKind::Butterfly,
                                           PatternKind::PerfectShuffle,
                                           PatternKind::BitReverse, PatternKind::Transpose,
                                           PatternKind::Tornado, PatternKind::Neighbor),
                         [](const auto& param_info) {
                           return std::string(pattern_name(param_info.param));
                         });

TEST(Patterns, UniformNeverSelfSends) {
  TrafficPattern p(PatternKind::Uniform, 64);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const NodeId src{static_cast<std::uint32_t>(i % 64)};
    EXPECT_NE(p.destination(src, rng), src);
  }
}

TEST(Patterns, UniformCoversAllDestinations) {
  TrafficPattern p(PatternKind::Uniform, 16);
  Rng rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(p.destination(NodeId{3}, rng).value());
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(seen.count(3), 0u);
}

TEST(Patterns, UniformIsApproximatelyUniform) {
  TrafficPattern p(PatternKind::Uniform, 8);
  Rng rng(7);
  std::map<std::uint32_t, int> counts;
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[p.destination(NodeId{0}, rng).value()];
  for (const auto& [dst, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 7.0, 0.01) << "dst " << dst;
  }
}

TEST(Patterns, HotspotBiasesTowardHotNode) {
  TrafficPattern p(PatternKind::Hotspot, 64, /*fraction=*/0.5, NodeId{7});
  Rng rng(9);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.destination(NodeId{0}, rng) == NodeId{7}) ++hot;
  }
  // 0.5 direct + 0.5 * 1/63 uniform residue.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.5 + 0.5 / 63.0, 0.02);
}

TEST(Patterns, PermuteOnStochasticThrows) {
  TrafficPattern p(PatternKind::Uniform, 64);
  EXPECT_THROW((void)p.permute(NodeId{0}), erapid::ModelInvariantError);
}

TEST(Patterns, NonPowerOfTwoRejectedForBitPermutations) {
  EXPECT_THROW(TrafficPattern(PatternKind::Butterfly, 48), erapid::ModelInvariantError);
  EXPECT_NO_THROW(TrafficPattern(PatternKind::Uniform, 48));
  EXPECT_NO_THROW(TrafficPattern(PatternKind::Neighbor, 48));
}

// ---- NodeSource ---------------------------------------------------------

TEST(NodeSource, RateMatchesBernoulliExpectation) {
  Engine engine;
  TrafficPattern pat(PatternKind::Uniform, 64);
  std::uint64_t count = 0;
  NodeSource src(engine, pat, NodeId{0}, 8, Rng(11),
                 [&](const Packet&, Cycle) { ++count; });
  src.start(0.05);
  engine.run_until(200000);
  EXPECT_NEAR(static_cast<double>(count) / 200000.0, 0.05, 0.003);
}

TEST(NodeSource, ZeroRateInjectsNothing) {
  Engine engine;
  TrafficPattern pat(PatternKind::Uniform, 64);
  std::uint64_t count = 0;
  NodeSource src(engine, pat, NodeId{0}, 8, Rng(1),
                 [&](const Packet&, Cycle) { ++count; });
  src.start(0.0);
  engine.run_until(10000);
  EXPECT_EQ(count, 0u);
}

TEST(NodeSource, StopHaltsInjection) {
  Engine engine;
  TrafficPattern pat(PatternKind::Uniform, 64);
  std::uint64_t count = 0;
  NodeSource src(engine, pat, NodeId{0}, 8, Rng(2),
                 [&](const Packet&, Cycle) { ++count; });
  src.start(0.5);
  engine.run_until(1000);
  const auto at_stop = count;
  EXPECT_GT(at_stop, 0u);
  src.stop();
  engine.run_until(5000);
  EXPECT_EQ(count, at_stop);
}

TEST(NodeSource, LabellingTagsPackets) {
  Engine engine;
  TrafficPattern pat(PatternKind::Uniform, 64);
  std::uint64_t labelled = 0, total = 0;
  NodeSource src(engine, pat, NodeId{0}, 8, Rng(3), [&](const Packet& p, Cycle) {
    ++total;
    if (p.labelled) ++labelled;
  });
  src.start(0.2);
  engine.run_until(5000);
  EXPECT_EQ(labelled, 0u);
  src.set_labelling(true);
  engine.run_until(10000);
  src.set_labelling(false);
  const auto labelled_mid = labelled;
  EXPECT_GT(labelled_mid, 0u);
  engine.run_until(15000);
  EXPECT_EQ(labelled, labelled_mid);
  EXPECT_GT(total, labelled);
}

TEST(NodeSource, PacketsCarrySourceAndMetadata) {
  Engine engine;
  TrafficPattern pat(PatternKind::Complement, 64);
  std::vector<Packet> got;
  NodeSource src(engine, pat, NodeId{5}, 8, Rng(4),
                 [&](const Packet& p, Cycle) { got.push_back(p); });
  src.start(0.5);
  engine.run_until(100);
  ASSERT_FALSE(got.empty());
  for (const auto& p : got) {
    EXPECT_EQ(p.src, NodeId{5});
    EXPECT_EQ(p.dst.value(), 58u);  // ~5 & 63
    EXPECT_EQ(p.flits, 8u);
    EXPECT_GT(p.seq, 0u);
  }
}

// Packet ids are per source: a freshly built source numbers from 1 no
// matter how many packets earlier sources in this process generated.
TEST(NodeSource, FreshSourceNumbersPacketsFromOne) {
  TrafficPattern pat(PatternKind::Uniform, 64);
  std::vector<erapid::PacketSeq> first_seq;
  for (int run = 0; run < 2; ++run) {
    Engine engine;
    std::vector<Packet> got;
    NodeSource src(engine, pat, NodeId{0}, 8, Rng(9),
                   [&](const Packet& p, Cycle) { got.push_back(p); });
    src.start(0.5);
    engine.run_until(100);
    ASSERT_FALSE(got.empty());
    first_seq.push_back(got.front().seq);
  }
  EXPECT_EQ(first_seq, (std::vector<erapid::PacketSeq>{1, 1}));
}

TEST(NodeSource, FullRateInjectsEveryCycle) {
  Engine engine;
  TrafficPattern pat(PatternKind::Neighbor, 64);
  std::uint64_t count = 0;
  NodeSource src(engine, pat, NodeId{0}, 8, Rng(8),
                 [&](const Packet&, Cycle) { ++count; });
  src.start(1.0);
  engine.run_until(1000);
  EXPECT_EQ(count, 1000u);
}

}  // namespace
