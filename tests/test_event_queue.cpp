// Differential tests for the two event calendars.
//
// The heap queue is the reference ordering; the calendar (timing wheel +
// ladder) must reproduce its pop sequence exactly — (time, seq), FIFO at
// equal timestamps — on randomized streams that exercise same-timestamp
// ties, interleaved push/pop, and far-future ladder spills. A second layer
// drives whole Engines of both kinds through the same schedule programs
// and asserts identical execution traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using erapid::Cycle;
using erapid::des::CalendarEventQueue;
using erapid::des::Engine;
using erapid::des::Event;
using erapid::des::EventQueue;
using erapid::des::HeapEventQueue;
using erapid::des::QueueKind;
using erapid::util::Rng;

Event make_event(Cycle when, std::uint64_t seq) {
  Event e;
  e.when = when;
  e.seq = seq;
  return e;
}

/// Pops everything currently queued from both and asserts identical
/// (when, seq) sequences.
void expect_identical_drain(EventQueue& heap, EventQueue& cal, const char* context) {
  ASSERT_EQ(heap.size(), cal.size()) << context;
  while (!heap.empty()) {
    const Event* ph = heap.peek();
    const Event* pc = cal.peek();
    ASSERT_NE(ph, nullptr) << context;
    ASSERT_NE(pc, nullptr) << context;
    EXPECT_EQ(ph->when, pc->when) << context;
    EXPECT_EQ(ph->seq, pc->seq) << context;
    const Event eh = heap.pop();
    const Event ec = cal.pop();
    ASSERT_EQ(eh.when, ec.when) << context;
    ASSERT_EQ(eh.seq, ec.seq) << context;
  }
  EXPECT_TRUE(cal.empty()) << context;
  EXPECT_EQ(cal.peek(), nullptr) << context;
}

TEST(EventQueueDiff, SameTimestampTiesPopInSeqOrder) {
  HeapEventQueue heap;
  CalendarEventQueue cal;
  std::uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      Event e = make_event(17, seq++);
      Event f = make_event(17, e.seq);
      heap.push(std::move(e));
      cal.push(std::move(f));
    }
  }
  std::uint64_t expect_seq = 0;
  while (!cal.empty()) {
    const Event eh = heap.pop();
    const Event ec = cal.pop();
    ASSERT_EQ(ec.seq, expect_seq++);
    ASSERT_EQ(eh.seq, ec.seq);
  }
}

TEST(EventQueueDiff, FarFutureLadderSpillMergesWithWheelTies) {
  // Craft the wheel/ladder tie by hand: push when=5000 while the window is
  // [0, 4096) (→ ladder), advance the window by popping when=2000, then
  // push when=5000 again (now in-window → wheel). The ladder entry has the
  // lower seq and must pop first.
  HeapEventQueue heap;
  CalendarEventQueue cal;
  std::uint64_t seq = 0;
  auto push_both = [&](Cycle when) {
    Event e = make_event(when, seq);
    Event f = make_event(when, seq);
    ++seq;
    heap.push(std::move(e));
    cal.push(std::move(f));
  };
  push_both(5000);   // seq 0 → ladder
  push_both(2000);   // seq 1 → wheel
  {
    const Event eh = heap.pop();
    const Event ec = cal.pop();
    ASSERT_EQ(eh.when, 2000u);
    ASSERT_EQ(ec.when, 2000u);  // window base is now 2000
  }
  push_both(5000);   // seq 2 → wheel, ties with the ladder's seq 0
  push_both(5000);   // seq 3 → wheel
  push_both(90000);  // seq 4 → deep ladder spill
  expect_identical_drain(heap, cal, "wheel/ladder tie");
}

TEST(EventQueueDiff, RandomizedStreamsPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31);
    HeapEventQueue heap;
    CalendarEventQueue cal;
    std::uint64_t seq = 0;
    Cycle now = 0;  // monotone pop clock, mirrors the engine's guarantee

    for (int op = 0; op < 4000; ++op) {
      const bool can_pop = !heap.empty();
      if (!can_pop || rng.next_below(3) != 0) {
        // Offset mix: mostly near-future (dense wheel), some mid-range,
        // some far beyond the window (ladder spills), plus exact ties.
        Cycle when = now;
        switch (rng.next_below(8)) {
          case 0: break;  // tie with the current time
          case 1:
          case 2:
          case 3: when += rng.next_below(16); break;
          case 4:
          case 5: when += rng.next_below(CalendarEventQueue::kBuckets); break;
          case 6: when += CalendarEventQueue::kBuckets + rng.next_below(100000); break;
          case 7: when += rng.next_below(3 * CalendarEventQueue::kBuckets); break;
        }
        Event e = make_event(when, seq);
        Event f = make_event(when, seq);
        ++seq;
        heap.push(std::move(e));
        cal.push(std::move(f));
      } else {
        const Event eh = heap.pop();
        const Event ec = cal.pop();
        ASSERT_EQ(eh.when, ec.when) << "seed " << seed << " op " << op;
        ASSERT_EQ(eh.seq, ec.seq) << "seed " << seed << " op " << op;
        now = eh.when;
      }
      ASSERT_EQ(heap.size(), cal.size()) << "seed " << seed << " op " << op;
    }
    expect_identical_drain(heap, cal, "randomized stream tail");
  }
}

TEST(EventQueueDiff, EmptyRefillCyclesStayIdentical) {
  // Drain-to-empty then refill far ahead: the wheel window must re-anchor
  // through the ladder without reordering.
  HeapEventQueue heap;
  CalendarEventQueue cal;
  std::uint64_t seq = 0;
  Cycle base = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      const Cycle when = base + static_cast<Cycle>(i % 3);
      Event e = make_event(when, seq);
      Event f = make_event(when, seq);
      ++seq;
      heap.push(std::move(e));
      cal.push(std::move(f));
    }
    expect_identical_drain(heap, cal, "empty/refill cycle");
    base += 1000000;  // far beyond the window each refill
  }
}

/// A heap and a calendar fed the same (when, seq) stream.
struct QueuePair {
  HeapEventQueue heap;
  CalendarEventQueue cal;
  std::uint64_t seq = 0;

  void push(Cycle when) {
    heap.push(make_event(when, seq));
    cal.push(make_event(when, seq));
    ++seq;
  }

  /// Pops one entry from each and asserts they agree; returns its time.
  Cycle pop(const char* context) {
    const Event eh = heap.pop();
    const Event ec = cal.pop();
    EXPECT_EQ(eh.when, ec.when) << context;
    EXPECT_EQ(eh.seq, ec.seq) << context;
    return eh.when;
  }
};

TEST(EventQueueDiff, WheelScanCrossesBitmapWordsAndWraps) {
  // Buckets 63/64 and 127/128 straddle occupancy words; 4095 is the last
  // bucket before the wheel wraps to 0.
  QueuePair q;
  for (const Cycle when : {64, 63, 128, 127, 4095, 65, 62, 4095}) q.push(when);
  expect_identical_drain(q.heap, q.cal, "word boundaries from base 0");

  // Base 4030 sits mid-word (word 62, bit 62). Bucket 4029 in the same
  // word holds a next-lap time, so it must lose to every bucket after the
  // base, including those reached by wrapping past 4095 to 0.
  QueuePair w;
  w.push(4030);
  EXPECT_EQ(w.pop("advance the base to 4030"), 4030u);
  for (const Cycle when : {4030 + 4095, 4096 + 64, 4096, 4096 + 63, 4095, 4031, 4096 + 1}) {
    w.push(when);
  }
  expect_identical_drain(w.heap, w.cal, "wrap from a mid-word base");

  // Only next-lap entries just behind the base: the scan goes all the way
  // round and finds them in the base's own word.
  QueuePair x;
  x.push(4030);
  EXPECT_EQ(x.pop("advance the base to 4030"), 4030u);
  x.push(4030 + 4095);
  x.push(4030 + 4095);
  expect_identical_drain(x.heap, x.cal, "only the bucket behind the base");
}

TEST(EventQueueDiff, EventsOneLapMinusOneApartStayInOrder) {
  // when = base + kBuckets - 1 is the last in-window slot: it lands in the
  // bucket just behind the base, the longest scan the bitmap can make.
  constexpr Cycle kGap = CalendarEventQueue::kBuckets - 1;
  QueuePair q;
  for (Cycle i = 0; i < 6; ++i) q.push(i * kGap);  // wheel and ladder both
  Cycle now = q.pop("first");
  for (int step = 0; step < 200; ++step) {
    q.push(now + kGap);
    if (step % 3 == 0) q.push(now + kGap);  // a tie behind the base
    if (step % 7 == 0) q.push(now);
    now = q.pop("one lap minus one");
    ASSERT_EQ(q.heap.size(), q.cal.size()) << "step " << step;
  }
  expect_identical_drain(q.heap, q.cal, "one lap minus one tail");
}

TEST(EventQueueDiff, DrainRefillCyclesReuseFreedNodes) {
  QueuePair q;
  Rng rng(91);
  Cycle base = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int i = 0; i < 100; ++i) q.push(base + rng.next_below(300));
    // Half out, half back in: the refill must take the freed nodes.
    for (int i = 0; i < 50; ++i) base = q.pop("partial drain");
    for (int i = 0; i < 50; ++i) q.push(base + rng.next_below(300));
    EXPECT_EQ(q.cal.pooled_nodes(), 100u) << "cycle " << cycle;
    while (!q.heap.empty()) base = q.pop("drain/refill cycle");
    EXPECT_TRUE(q.cal.empty());
    base += 1 + rng.next_below(5000);  // sometimes past the window
  }
  EXPECT_EQ(q.cal.pooled_nodes(), 100u);
}

TEST(EventQueueDiff, SparseFarFutureMixMatchesHeap) {
  // A run shaped like a fault plan over a long trace replay: a handful of
  // fault events spread over a 2M-cycle horizon, trace records separated
  // by long gaps, and each record setting off a short burst of
  // near-future events. Pending entries stay few while the wheel is
  // mostly empty, the case that a linear bucket scan handles worst.
  constexpr Cycle kHorizon = 2'000'000;
  QueuePair q;
  const Cycle faults[] = {5000, 8000, 120000, 600000, 1'250'000, kHorizon - 1};
  for (const Cycle when : faults) q.push(when);
  q.push(kHorizon);  // the workload horizon
  Rng rng(2024);
  Cycle next_record = 0;
  q.push(next_record);
  std::size_t peak = q.cal.size();
  std::uint64_t pops = 0;
  while (!q.heap.empty()) {
    const Event* top = q.heap.peek();
    const bool record = top->when == next_record;
    const Cycle now = q.pop("sparse mix");
    ++pops;
    if (record && now < kHorizon) {
      for (int k = 0; k < 4; ++k) q.push(now + 1 + rng.next_below(50));
      next_record = now + 10000 + rng.next_below(100000);
      q.push(next_record);
    }
    peak = std::max(peak, q.cal.size());
  }
  EXPECT_TRUE(q.cal.empty());
  EXPECT_GT(pops, 100u);
  // Memory follows the pending count, not the horizon or the gaps.
  EXPECT_LE(q.cal.pooled_nodes(), peak);
}

// ---- engine-level differential ---------------------------------------------

class EngineOnQueue : public testing::TestWithParam<QueueKind> {};

TEST_P(EngineOnQueue, CoreSemanticsHold) {
  Engine e(GetParam());
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  for (int i = 0; i < 8; ++i) {
    e.schedule(20, [&order, i] { order.push_back(10 + i); });
  }
  auto h = e.schedule(15, [&] { order.push_back(99); });
  h.cancel();
  EXPECT_FALSE(h.pending());
  e.run_all();
  std::vector<int> expect{1, 10, 11, 12, 13, 14, 15, 16, 17, 3};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(e.now(), 30u);
}

TEST_P(EngineOnQueue, RecursiveSchedulingAndRunUntil) {
  Engine e(GetParam());
  int depth = 0;
  // Self-rescheduling chain: each firing schedules the next one cycle out.
  struct Chain {
    Engine& e;
    int& depth;
    void operator()() const {
      if (++depth < 5) e.schedule(1, Chain{e, depth});
    }
  };
  e.schedule(1, Chain{e, depth});
  e.schedule(100000, [&] { depth += 100; });  // beyond the wheel window
  e.run_until(50);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 50u);
  e.run_all();
  EXPECT_EQ(depth, 105);
  EXPECT_EQ(e.now(), 100000u);
}

TEST_P(EngineOnQueue, CancelledHeadOfAPooledChainIsSkipped) {
  // Same-cycle events share one wheel chain. Cancel its head before the
  // run, and cancel the next head from inside a callback, so each skim
  // meets a dead entry at the front of a live chain.
  Engine e(GetParam());
  std::vector<int> order;
  std::vector<erapid::des::EventHandle> h;
  for (int i = 0; i < 5; ++i) {
    h.push_back(e.schedule(10, [&order, i] { order.push_back(i); }));
  }
  h.push_back(e.schedule(20, [&] {
    order.push_back(20);
    h[6].cancel();
  }));
  h.push_back(e.schedule(20, [&] { order.push_back(21); }));
  h.push_back(e.schedule(20, [&] { order.push_back(22); }));
  h.push_back(e.schedule(20, [&] { order.push_back(23); }));
  h[0].cancel();
  h[2].cancel();
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 20, 22, 23}));
  EXPECT_EQ(e.queue_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, EngineOnQueue,
                         testing::Values(QueueKind::Heap, QueueKind::Calendar),
                         [](const auto& kind_info) {
                           return std::string(erapid::des::queue_kind_name(kind_info.param));
                         });

TEST(EngineDiff, RandomWorkloadsExecuteIdenticallyOnBothKinds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<std::pair<Cycle, int>> traces[2];
    for (int k = 0; k < 2; ++k) {
      Rng rng(seed * 101);  // identical stream for both engines
      Engine e(k == 0 ? QueueKind::Heap : QueueKind::Calendar);
      auto& trace = traces[k];
      std::vector<erapid::des::EventHandle> handles;
      const int n = 300;
      for (int i = 0; i < n; ++i) {
        Cycle when = rng.next_below(2);
        if (rng.next_below(5) == 0) when = 5000 + rng.next_below(200000);
        handles.push_back(e.schedule(when, [&trace, &e, i] {
          trace.emplace_back(e.now(), i);
        }));
      }
      for (int i = 0; i < n; ++i) {
        if (rng.next_below(4) == 0) handles[static_cast<std::size_t>(i)].cancel();
      }
      e.run_all();
    }
    ASSERT_EQ(traces[0], traces[1]) << "seed " << seed;
  }
}

}  // namespace
