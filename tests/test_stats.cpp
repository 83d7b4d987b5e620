// Unit tests for streaming statistics, time-weighted integration,
// histograms and windowed utilization counters.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/histogram.hpp"
#include "stats/streaming.hpp"
#include "stats/time_weighted.hpp"
#include "stats/window.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace {

using erapid::stats::BusyCounter;
using erapid::stats::Histogram;
using erapid::stats::OccupancyTracker;
using erapid::stats::Streaming;
using erapid::stats::TimeWeighted;

// ---- Streaming ---------------------------------------------------------

TEST(Streaming, EmptyIsZero) {
  Streaming s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Streaming, MeanAndVarianceMatchClosedForm) {
  Streaming s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Streaming, MergeEqualsSinglePass) {
  erapid::util::Rng rng(1);
  Streaming whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Streaming, MergeWithEmptySides) {
  Streaming a, b;
  a.add(3.0);
  Streaming empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ---- TimeWeighted ------------------------------------------------------

TEST(TimeWeighted, PiecewiseConstantIntegral) {
  TimeWeighted tw(0, 2.0);
  tw.set(10, 4.0);   // 2.0 held for [0,10)
  tw.set(30, 0.0);   // 4.0 held for [10,30)
  EXPECT_DOUBLE_EQ(tw.integral(40), 2.0 * 10 + 4.0 * 20 + 0.0 * 10);
}

TEST(TimeWeighted, AverageOverWindow) {
  TimeWeighted tw(0, 0.0);
  tw.set(0, 10.0);
  tw.set(50, 20.0);
  EXPECT_DOUBLE_EQ(tw.average(0, 100), 15.0);
}

TEST(TimeWeighted, CheckpointStartsNewWindow) {
  TimeWeighted tw(0, 8.0);
  tw.checkpoint(100);  // forget [0,100) for averaging
  tw.set(150, 0.0);
  // window [100,200): 8.0 for 50 cycles, 0 for 50 cycles
  EXPECT_DOUBLE_EQ(tw.average(100, 200), 4.0);
}

TEST(TimeWeighted, AddIsRelative) {
  TimeWeighted tw(0, 1.0);
  tw.add(10, 2.0);
  EXPECT_DOUBLE_EQ(tw.level(), 3.0);
  tw.add(20, -3.0);
  EXPECT_DOUBLE_EQ(tw.level(), 0.0);
}

TEST(TimeWeighted, NonMonotonicUpdateThrows) {
  TimeWeighted tw(10, 0.0);
  EXPECT_THROW(tw.set(5, 1.0), erapid::ModelInvariantError);
}

// ---- Histogram ---------------------------------------------------------

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0, 100, 10);
  h.add(5);
  h.add(15);
  h.add(150);   // overflow
  h.add(-1);    // underflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
}

TEST(Histogram, QuantilesOfUniformData) {
  Histogram h(0, 1000, 1000);
  for (int i = 0; i < 1000; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 500.0, 2.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 2.0);
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  Histogram h(0, 10, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, ResetClears) {
  Histogram h(0, 10, 10);
  h.add(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bin_count(5), 0u);
}

TEST(Histogram, ValueAtUpperEdgeIsOverflow) {
  Histogram h(0, 10, 10);
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 1u);
}

// ---- BusyCounter / OccupancyTracker -------------------------------------

TEST(BusyCounter, UtilizationIsBusyOverWindow) {
  BusyCounter c;
  c.add_busy(500);
  EXPECT_DOUBLE_EQ(c.utilization(2000), 0.25);
  c.reset();
  EXPECT_DOUBLE_EQ(c.utilization(2000), 0.0);
}

TEST(BusyCounter, UtilizationClampsAtOne) {
  BusyCounter c;
  c.add_busy(2500);  // packet straddles the window boundary
  EXPECT_DOUBLE_EQ(c.utilization(2000), 1.0);
}

TEST(BusyCounter, ZeroWindowIsZero) {
  BusyCounter c;
  c.add_busy(10);
  EXPECT_DOUBLE_EQ(c.utilization(0), 0.0);
}

TEST(OccupancyTracker, TimeAveragedFraction) {
  OccupancyTracker t(10);
  t.set_occupancy(0, 5);    // 0.5 for [0,100)
  t.set_occupancy(100, 10); // 1.0 for [100,200)
  EXPECT_DOUBLE_EQ(t.utilization(0, 200), 0.75);
}

TEST(OccupancyTracker, HarvestResetsWindow) {
  OccupancyTracker t(4);
  t.set_occupancy(0, 4);
  t.harvest(100);
  t.set_occupancy(100, 0);
  EXPECT_DOUBLE_EQ(t.utilization(100, 200), 0.0);
}

}  // namespace
