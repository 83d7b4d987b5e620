// Unit tests for utilities: RNG, CSV, table printer, CLI, strong ids.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arena.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/expect.hpp"
#include "util/inplace_fn.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace {

using erapid::BoardId;
using erapid::NodeId;
using erapid::util::Cli;
using erapid::util::CsvWriter;
using erapid::util::Rng;
using erapid::util::TablePrinter;

// ---- RNG ---------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng r(3);
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bernoulli(0.0));
    EXPECT_TRUE(r.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.next_bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The fork and the parent should not emit identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, MeanOfUniformDoublesIsHalf) {
  Rng r(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

// ---- strong ids --------------------------------------------------------

TEST(StrongId, DefaultIsInvalid) {
  NodeId n;
  EXPECT_FALSE(n.valid());
  EXPECT_TRUE(NodeId{3}.valid());
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(BoardId{2}, BoardId{2});
  EXPECT_NE(BoardId{2}, BoardId{3});
  EXPECT_LT(BoardId{2}, BoardId{3});
}

// ---- CSV ---------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "erapid_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.row_values(1, 2.5);
    w.row_values("x,y", "q\"z");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",\"q\"\"z\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = testing::TempDir() + "erapid_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), erapid::ModelInvariantError);
  std::remove(path.c_str());
}

// ---- table printer -----------------------------------------------------

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.row_values("x", 1);
  t.row_values("longer", 22);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FixedFormatsDigits) {
  EXPECT_EQ(TablePrinter::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fixed(2.0, 1), "2.0");
}

// ---- CLI ---------------------------------------------------------------

TEST(Cli, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--load=0.5", "--name=abc", "--junk=0.5x", "--empty="};
  const auto cli = Cli::parse(5, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0), 0.5);
  EXPECT_EQ(cli.get_or("name", ""), "abc");
  // The whole value must be one number; the error names the flag.
  for (const char* bad : {"name", "junk", "empty"}) {
    try {
      (void)cli.get_double(bad, 0);
      ADD_FAILURE() << "--" << bad << " parsed as a number";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + bad), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--load", "0.7"};
  const auto cli = Cli::parse(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0), 0.7);
}

TEST(Cli, BooleanFlagWithoutValue) {
  const char* argv[] = {"prog", "--verbose"};
  const auto cli = Cli::parse(2, argv);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("other", false));
}

TEST(Cli, PositionalArgumentsPreserved) {
  const char* argv[] = {"prog", "pos1", "--k=v", "pos2"};
  const auto cli = Cli::parse(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Cli, IntParsingWithDefault) {
  const char* argv[] = {"prog",        "--n=12",    "--seed=abc",        "--boards=-1",
                        "--trail=12x", "--plus=+3", "--wide=4294967296", "--space= 7"};
  const auto cli = Cli::parse(8, argv);
  EXPECT_EQ(cli.get_uint<std::uint32_t>("n", 0), 12u);
  EXPECT_EQ(cli.get_uint<std::uint32_t>("missing", 99), 99u);
  EXPECT_EQ(cli.get_uint<std::uint64_t>("wide", 0), 4294967296u);
  // Malformed, signed, trailing junk and out-of-range values throw instead
  // of running seed 0 or 4294967295 boards.
  EXPECT_THROW((void)cli.get_uint<std::uint64_t>("seed", 1), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("boards", 4), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("trail", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("plus", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("wide", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("space", 0), std::invalid_argument);
  try {
    (void)cli.get_uint<std::uint32_t>("boards", 4);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--boards"), std::string::npos) << e.what();
  }
}

// ---- Arena -------------------------------------------------------------

TEST(Arena, RespectsRequestedAlignment) {
  erapid::util::Arena arena(256);
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u}) {
    for (int i = 0; i < 8; ++i) {
      void* p = arena.allocate(3, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align " << align << " iter " << i;
    }
  }
}

TEST(Arena, GrowsBeyondOneChunk) {
  erapid::util::Arena arena(64);
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.allocate(16, 8);
    EXPECT_TRUE(seen.insert(p).second) << "allocation " << i << " aliased";
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_served(), 1600u);
}

TEST(Arena, OversizedRequestFallsBackToDedicatedChunk) {
  erapid::util::Arena arena(64);
  void* small1 = arena.allocate(16, 8);
  void* big = arena.allocate(1000, 8);  // > chunk size: dedicated chunk
  void* small2 = arena.allocate(16, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 8, 0u);
  // The bump pointer keeps filling the normal chunk around the big one.
  EXPECT_EQ(static_cast<char*>(small2), static_cast<char*>(small1) + 16);
  std::memset(big, 0xAB, 1000);  // fully usable (ASan would object otherwise)
}

TEST(Arena, ResetReusesRetainedCapacity) {
  erapid::util::Arena arena(128);
  std::vector<void*> first;
  for (int i = 0; i < 20; ++i) first.push_back(arena.allocate(24, 8));
  const auto chunks_before = arena.chunk_count();
  const auto capacity_before = arena.capacity_bytes();
  arena.reset();
  EXPECT_EQ(arena.bytes_served(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks_before);
  EXPECT_EQ(arena.capacity_bytes(), capacity_before);
  // Same storage comes back in the same order.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(arena.allocate(24, 8), first[static_cast<std::size_t>(i)]);
}

TEST(Arena, ZeroByteRequestStillReturnsDistinctStorage) {
  erapid::util::Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  EXPECT_NE(a, b);
}

// ---- Pool --------------------------------------------------------------

struct PoolProbe {
  explicit PoolProbe(int v) : value(v) { ++alive; }
  ~PoolProbe() { --alive; }
  int value;
  static int alive;
};
int PoolProbe::alive = 0;

TEST(Pool, CreateDestroyRecyclesSlots) {
  erapid::util::Arena arena(1024);
  erapid::util::Pool<PoolProbe> pool(arena);
  PoolProbe* a = pool.create(1);
  PoolProbe* b = pool.create(2);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(PoolProbe::alive, 2);
  pool.destroy(a);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.free_count(), 1u);
  PoolProbe* c = pool.create(3);  // reuses a's slot
  EXPECT_EQ(static_cast<void*>(c), static_cast<void*>(a));
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.slots_created(), 2u);
  pool.destroy(b);
  pool.destroy(c);
  EXPECT_EQ(PoolProbe::alive, 0);
  pool.destroy(nullptr);  // ignored
}

// ---- InplaceFn ---------------------------------------------------------

TEST(InplaceFn, SmallCapturesStayInline) {
  int hits = 0;
  erapid::util::InplaceFn<96> fn = [&hits] { ++hits; };
  EXPECT_TRUE(fn.is_inline());
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFn, LargeCapturesFallBackToHeapAndStillRun) {
  struct Big {
    double payload[32] = {};  // 256 bytes — far over the 96-byte buffer
  };
  Big big;
  big.payload[31] = 7.5;
  double seen = 0.0;
  erapid::util::InplaceFn<96> fn = [big, &seen] { seen = big.payload[31]; };
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 7.5);
}

TEST(InplaceFn, MoveTransfersOwnershipExactlyOnce) {
  auto owner = std::make_shared<int>(42);
  std::weak_ptr<int> watch = owner;
  int got = 0;
  erapid::util::InplaceFn<96> a = [owner = std::move(owner), &got] { got = *owner; };
  erapid::util::InplaceFn<96> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(got, 42);
  erapid::util::InplaceFn<96> c;
  c = std::move(b);
  c();
  EXPECT_EQ(watch.use_count(), 1);  // exactly one live copy of the capture
  c = erapid::util::InplaceFn<96>{};
  EXPECT_TRUE(watch.expired());  // destroyed with the callable
}

TEST(InplaceFn, DefaultConstructedIsEmpty) {
  erapid::util::InplaceFn<32> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  erapid::util::InplaceFn<32> fn2 = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn2));
}

// ---- strong unit types (util/units.hpp) ------------------------------------

TEST(Units, SameDimensionArithmeticStaysInDimension) {
  using erapid::units::Milliwatts;
  const Milliwatts a{10.0};
  const Milliwatts b{2.5};
  EXPECT_EQ((a + b).value(), 12.5);
  EXPECT_EQ((a - b).value(), 7.5);
  EXPECT_EQ((a * 2.0).value(), 20.0);
  EXPECT_EQ((2.0 * a).value(), 20.0);
  EXPECT_EQ((a / 4.0).value(), 2.5);
  Milliwatts acc{1.0};
  acc += a;
  acc -= b;
  EXPECT_EQ(acc.value(), 8.5);
}

TEST(Units, RatioOfLikeQuantitiesIsDimensionless) {
  using erapid::units::GbitsPerSec;
  const double ratio = GbitsPerSec{2.5} / GbitsPerSec{5.0};
  EXPECT_EQ(ratio, 0.5);
}

TEST(Units, ComparisonsFollowTheUnderlyingDouble) {
  using erapid::units::Volts;
  EXPECT_TRUE(Volts{0.7} < Volts{0.9});
  EXPECT_TRUE(Volts{0.9} <= Volts{0.9});
  EXPECT_TRUE(Volts{0.9} == Volts{0.9});
  EXPECT_TRUE(Volts{1.0} > Volts{0.9});
  EXPECT_TRUE(Volts{1.0} != Volts{0.9});
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_EQ(erapid::units::MilliwattCycles{}.value(), 0.0);
}

TEST(Units, TimeConversionsRoundTrip) {
  using erapid::units::Nanoseconds;
  using erapid::units::Picoseconds;
  const Nanoseconds ns{0.4};  // a 2.5 GHz clock period
  const Picoseconds ps = erapid::units::to_ps(ns);
  EXPECT_EQ(ps.value(), 400.0);
  EXPECT_EQ(erapid::units::to_ns(ps).value(), 0.4);
}

TEST(Units, EnergyAndAveragePowerAreInverse) {
  using erapid::units::MilliwattCycles;
  using erapid::units::Milliwatts;
  const Milliwatts p{43.03};
  const MilliwattCycles e = erapid::units::energy_over(p, 200.0);
  EXPECT_EQ(e.value(), 43.03 * 200.0);
  EXPECT_EQ(erapid::units::average_power(e, 200.0).value(), p.value());
}

TEST(Units, ArithmeticIsBitIdenticalToRawDoubles) {
  // The migration contract: Quantity math must be the same IEEE ops in the
  // same order as the raw-double code it replaced.
  using erapid::units::Milliwatts;
  const double ra = 13.7, rb = 0.3;
  const Milliwatts qa{ra}, qb{rb};
  EXPECT_EQ((qa + qb).value(), ra + rb);
  EXPECT_EQ((qa * 0.1).value(), ra * 0.1);
  EXPECT_EQ(qa / qb, ra / rb);
}

}  // namespace
