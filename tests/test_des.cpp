// Unit tests for the discrete-event kernel and clock domain.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "util/expect.hpp"

namespace {

using erapid::Cycle;
using erapid::kNeverCycle;
using erapid::des::ClockDomain;
using erapid::des::Clocked;
using erapid::des::Engine;
using erapid::des::QueueKind;

TEST(Engine, StartsAtTimeZeroWithEmptyQueue) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.queue_size(), 0u);
  EXPECT_EQ(e.next_event_time(), kNeverCycle);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeEventsFireInFifoOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run_all();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  Cycle fired_at = kNeverCycle;
  e.schedule(7, [&] {
    e.schedule(0, [&] { fired_at = e.now(); });
  });
  e.run_all();
  EXPECT_EQ(fired_at, 7u);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule(10, [&] {
    EXPECT_THROW(e.schedule_at(5, [] {}), erapid::ModelInvariantError);
  });
  e.run_all();
}

TEST(Engine, RunUntilStopsAtLimitAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(100, [&] { ++fired; });
  const auto n = e.run_until(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50u);  // clock advances to the limit even when idle
  e.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilLimitIsInclusive) {
  Engine e;
  bool fired = false;
  e.schedule(50, [&] { fired = true; });
  e.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto h = e.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  e.run_all();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine e;
  auto h = e.schedule(1, [] {});
  e.run_all();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
  h.cancel();
}

TEST(Engine, DefaultConstructedHandleIsInert) {
  erapid::des::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Engine, EventsScheduledDuringExecutionRun) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule(1, recurse);
  };
  e.schedule(1, recurse);
  e.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, NextEventTimeSkipsCancelled) {
  Engine e;
  auto h = e.schedule(10, [] {});
  e.schedule(20, [] {});
  h.cancel();
  EXPECT_EQ(e.next_event_time(), 20u);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.schedule(static_cast<Cycle>(i + 1), [] {});
  e.run_all();
  EXPECT_EQ(e.events_executed(), 10u);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule(1, [&] { ++fired; });
  e.schedule(1, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step(100));
}

// ---- event lifetimes (both calendars) -----------------------------------

class EventLifetime : public testing::TestWithParam<QueueKind> {};

/// A closure over 96 bytes: EventFn keeps it on the heap, not inline.
struct BigCapture {
  std::shared_ptr<int> token;
  double pad[16] = {};
  void operator()() const {}
};
static_assert(!erapid::des::EventFn::fits_inline<BigCapture>());

TEST_P(EventLifetime, CancelledCaptureIsReleasedWhenSkimmed) {
  Engine e(GetParam());
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  auto h = e.schedule(10, [token] { (void)token; });
  e.schedule(20, [] {});
  token.reset();
  h.cancel();
  EXPECT_FALSE(watch.expired());  // cancellation is lazy: the entry remains
  EXPECT_EQ(e.next_event_time(), 20u);
  EXPECT_TRUE(watch.expired());
}

TEST_P(EventLifetime, PendingInlineCapturesDieWithTheEngine) {
  std::weak_ptr<int> watch;
  {
    Engine e(GetParam());
    auto token = std::make_shared<int>(0);
    watch = token;
    e.schedule(5, [token] { (void)token; });
    e.schedule(6000, [token] { (void)token; });  // past the calendar window
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST_P(EventLifetime, PendingHeapCapturesDieWithTheEngine) {
  std::weak_ptr<int> watch;
  {
    Engine e(GetParam());
    auto token = std::make_shared<int>(0);
    watch = token;
    e.schedule(5, BigCapture{token});
    e.schedule(6000, BigCapture{token});
    token.reset();
    e.run_until(1);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST_P(EventLifetime, HandleReadsNotPendingInsideItsOwnCallback) {
  Engine e(GetParam());
  erapid::des::EventHandle h;
  bool pending_inside = true;
  h = e.schedule(3, [&] { pending_inside = h.pending(); });
  EXPECT_TRUE(h.pending());
  e.run_all();
  EXPECT_FALSE(pending_inside);
}

TEST_P(EventLifetime, EventReusingTheFreedSlotLeavesTheOldHandleInert) {
  Engine e(GetParam());
  erapid::des::EventHandle first;
  erapid::des::EventHandle second;
  bool second_fired = false;
  first = e.schedule(1, [&] {
    // The only pending event just gave up its slot; this takes it over.
    second = e.schedule(1, [&] { second_fired = true; });
    EXPECT_FALSE(first.pending());
    EXPECT_TRUE(second.pending());
    first.cancel();  // stale handle: must not touch the slot's new event
    EXPECT_TRUE(second.pending());
  });
  e.run_all();
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(second.pending());
}

INSTANTIATE_TEST_SUITE_P(BothKinds, EventLifetime,
                         testing::Values(QueueKind::Heap, QueueKind::Calendar),
                         [](const auto& kind_info) {
                           return std::string(erapid::des::queue_kind_name(kind_info.param));
                         });

// ---- ClockDomain -------------------------------------------------------

class CountingClocked : public Clocked {
 public:
  void tick(Cycle now) override {
    ++ticks;
    last_tick = now;
  }
  void post_tick(Cycle) override { ++post_ticks; }
  [[nodiscard]] bool quiescent() const override { return quiet; }

  int ticks = 0;
  int post_ticks = 0;
  Cycle last_tick = 0;
  bool quiet = false;
};

TEST(ClockDomain, TicksEveryCycleWhileBusy) {
  Engine e;
  ClockDomain dom(e);
  CountingClocked c;
  dom.add(c);
  dom.wake();
  e.run_until(10);
  EXPECT_EQ(c.ticks, 10);
  EXPECT_EQ(c.post_ticks, 10);
}

TEST(ClockDomain, SleepsWhenAllQuiescent) {
  Engine e;
  ClockDomain dom(e);
  CountingClocked c;
  dom.add(c);
  dom.wake();
  e.run_until(5);
  c.quiet = true;
  e.run_until(100);
  EXPECT_TRUE(c.ticks <= 7);  // stopped ticking shortly after quiescence
  EXPECT_FALSE(dom.running());
}

TEST(ClockDomain, WakeRearmsAfterSleep) {
  Engine e;
  ClockDomain dom(e);
  CountingClocked c;
  c.quiet = true;
  dom.add(c);
  dom.wake();
  e.run_until(10);
  const int ticks_after_sleep = c.ticks;
  EXPECT_EQ(ticks_after_sleep, 1);  // one tick, then slept

  c.quiet = false;
  dom.wake();
  e.run_until(20);
  EXPECT_GT(c.ticks, ticks_after_sleep + 5);
}

TEST(ClockDomain, WakeWhileRunningIsIdempotent) {
  Engine e;
  ClockDomain dom(e);
  CountingClocked c;
  dom.add(c);
  dom.wake();
  dom.wake();
  dom.wake();
  e.run_until(5);
  EXPECT_EQ(c.ticks, 5);  // not double-ticked
}

TEST(ClockDomain, TwoComponentsTickInRegistrationOrder) {
  Engine e;
  ClockDomain dom(e);
  std::vector<int> order;
  struct Probe : Clocked {
    Probe(std::vector<int>* o, int i) : order(o), id(i) {}
    std::vector<int>* order;
    int id;
    void tick(Cycle) override { order->push_back(id); }
    [[nodiscard]] bool quiescent() const override { return true; }
  };
  Probe a(&order, 1), b(&order, 2);
  dom.add(a);
  dom.add(b);
  dom.wake();
  e.run_until(2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// ---- ClockDomain::post -------------------------------------------------

// A component that logs every tick and runs `on_tick` on it; quiescent
// after its first `busy_ticks` ticks.
struct Poster : Clocked {
  std::vector<std::string>* log = nullptr;
  std::function<void(Cycle)> on_tick;
  int busy_ticks = 1;
  int ticks = 0;
  void tick(Cycle now) override {
    ++ticks;
    if (log != nullptr) log->push_back("tick" + std::to_string(now));
    if (on_tick) on_tick(now);
  }
  [[nodiscard]] bool quiescent() const override { return ticks >= busy_ticks; }
};

auto logger(std::vector<std::string>& order, std::string what) {
  return [&order, what = std::move(what)] { order.push_back(what); };
}

class ClockDomainPost : public testing::TestWithParam<QueueKind> {};

// Posts due at cycle t run at the start of tick t, in call order, before
// any component ticks; they add no calendar event, and the domain keeps
// ticking while they are pending though its one component is quiescent.
TEST_P(ClockDomainPost, OneTicksPostsForACycleAreOneEventInCallOrder) {
  Engine e(GetParam());
  ClockDomain dom(e);
  Poster p;
  std::vector<std::string> order;
  p.log = &order;
  p.on_tick = [&](Cycle now) {
    if (now != 1) return;
    for (const char* what : {"a", "b", "c"}) dom.post(5, logger(order, what));
  };
  dom.add(p);
  dom.wake();
  e.run_until(1);
  EXPECT_EQ(e.queue_size(), 1u);  // the next tick, nothing else
  e.run_until(4);
  const auto before = e.events_executed();
  e.run_until(5);
  EXPECT_EQ(e.events_executed(), before + 1);  // the tick alone
  EXPECT_EQ(order, (std::vector<std::string>{"tick1", "tick2", "tick3", "tick4", "a", "b", "c",
                                             "tick5"}));
  e.run_all();
  EXPECT_FALSE(dom.running());
  EXPECT_EQ(dom.ticks(), 5u);
}

// Posts made in two ticks for the same cycle run in call order: the
// first tick's, then the second's.
TEST_P(ClockDomainPost, PostsFromTwoTicksAreTwoBatchesInTickOrder) {
  Engine e(GetParam());
  ClockDomain dom(e);
  Poster p;
  p.busy_ticks = 2;
  std::vector<std::string> order;
  p.on_tick = [&](Cycle now) {
    if (now > 2) return;
    const std::string t = "t" + std::to_string(now);
    dom.post(5, logger(order, t + "a"));
    dom.post(5, logger(order, t + "b"));
  };
  dom.add(p);
  dom.wake();  // ticks at 1 and 2 post
  e.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"t1a", "t1b", "t2a", "t2b"}));
}

// The tick at cycle 1 posts for cycles 5 and 6. Calendar events at 5
// scheduled before the tick at 5 was (at cycle 0, and by an event later
// in cycle 1) run before that cycle's posts; an event a post schedules for
// the same cycle runs after the whole tick.
TEST_P(ClockDomainPost, EventsScheduledBeforeATickRunBeforeItsPosts) {
  Engine e(GetParam());
  ClockDomain dom(e);
  Poster p;
  std::vector<std::string> order;
  p.on_tick = [&](Cycle now) {
    if (now == 5) order.emplace_back("tick5");
    if (now != 1) return;
    dom.post(5, [&] {
      order.emplace_back("a");
      e.schedule(0, logger(order, "from-a"));
    });
    dom.post(6, logger(order, "x"));
    dom.post(5, logger(order, "b"));
  };
  e.schedule_at(5, logger(order, "before"));
  dom.add(p);
  dom.wake();                                                     // tick at 1
  e.schedule_at(1, [&] { e.schedule_at(5, logger(order, "after")); });  // runs after it
  e.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "after", "a", "b", "tick5", "from-a", "x"}));
}

// A post made from an ordinary event wakes a sleeping domain, which ticks
// until the post has run at its cycle and then sleeps again.
TEST_P(ClockDomainPost, PostOutsideATickWakesASleepingDomain) {
  Engine e(GetParam());
  ClockDomain dom(e);
  Poster p;
  p.busy_ticks = 0;  // always quiescent
  dom.add(p);
  std::vector<Cycle> ran;
  dom.post(3, [&] { ran.push_back(e.now()); });
  EXPECT_TRUE(dom.running());
  e.run_all();
  EXPECT_FALSE(dom.running());
  EXPECT_EQ(dom.ticks(), 3u);
  e.schedule_at(20, [&] { dom.post(24, [&] { ran.push_back(e.now()); }); });
  e.run_all();
  EXPECT_EQ(ran, (std::vector<Cycle>{3, 24}));
  EXPECT_EQ(dom.ticks(), 7u);  // 21..24
  EXPECT_FALSE(dom.running());
}

// A post must land strictly after now and within the ring: the ring for
// max_delay 4 is 8 slots, so 7 cycles ahead is the furthest, inside a tick
// or out of one.
TEST_P(ClockDomainPost, PostOutsideTheRingViolatesItsPrecondition) {
  Engine e(GetParam());
  ClockDomain dom(e, 4);
  EXPECT_EQ(dom.max_delay(), 7u);
  Poster p;
  dom.add(p);
  EXPECT_THROW(dom.post(0, [] {}), erapid::ModelInvariantError);
  EXPECT_THROW(dom.post(8, [] {}), erapid::ModelInvariantError);
  std::vector<std::string> thrown;
  p.on_tick = [&](Cycle now) {
    for (const Cycle when : {now, now + 8}) {
      try {
        dom.post(when, [] {});
      } catch (const erapid::ModelInvariantError&) {
        thrown.push_back(std::to_string(when));
      }
    }
    dom.post(now + 7, [] {});
  };
  dom.wake();
  e.run_until(1);
  EXPECT_EQ(thrown, (std::vector<std::string>{"1", "9"}));
}

INSTANTIATE_TEST_SUITE_P(BothKinds, ClockDomainPost,
                         testing::Values(QueueKind::Heap, QueueKind::Calendar),
                         [](const auto& kind_info) {
                           return std::string(erapid::des::queue_kind_name(kind_info.param));
                         });

}  // namespace
