// Unit tests for the VC wormhole router: pipeline timing, credits,
// arbitration fairness, wormhole ordering, and the injector/ejection NI
// helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "router/arbiter.hpp"
#include "router/flit.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"

namespace {

using erapid::Cycle;
using erapid::NodeId;
using erapid::des::ClockDomain;
using erapid::des::Engine;
using erapid::router::EjectionUnit;
using erapid::router::Flit;
using erapid::router::FlitInjector;
using erapid::router::FlitReceiver;
using erapid::router::make_flit;
using erapid::router::OutputPortConfig;
using erapid::router::Packet;
using erapid::router::RoundRobinArbiter;
using erapid::router::Router;

// ---- RoundRobinArbiter ---------------------------------------------------

using Reqs = std::vector<std::uint32_t>;

TEST(Arbiter, GrantsFirstRequester) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(Reqs{1, 3}), 1u);
}

TEST(Arbiter, PointerAdvancesPastWinner) {
  RoundRobinArbiter arb(4);
  const Reqs all{0, 1, 2, 3};
  EXPECT_EQ(arb.grant(all), 0u);
  EXPECT_EQ(arb.grant(all), 1u);
  EXPECT_EQ(arb.grant(all), 2u);
  EXPECT_EQ(arb.grant(all), 3u);
  EXPECT_EQ(arb.grant(all), 0u);
}

TEST(Arbiter, NoRequestsNoGrant) {
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.grant(Reqs{1}), 1u);
  EXPECT_EQ(arb.grant(Reqs{}), RoundRobinArbiter::kNoGrant);
  EXPECT_EQ(arb.pointer(), 2u);  // an empty request leaves the pointer alone
}

TEST(Arbiter, StrongFairnessUnderContention) {
  RoundRobinArbiter arb(3);
  std::vector<int> grants(3, 0);
  for (int i = 0; i < 300; ++i) ++grants[arb.grant(Reqs{0, 1, 2})];
  EXPECT_EQ(grants[0], 100);
  EXPECT_EQ(grants[1], 100);
  EXPECT_EQ(grants[2], 100);
}

TEST(Arbiter, WidthMismatchThrows) {
  RoundRobinArbiter arb(3);
  EXPECT_THROW(arb.grant(Reqs{0, 3}), erapid::ModelInvariantError);
}

/// The arbiter's former grant loop over a `std::vector<bool>` mask, kept
/// verbatim as the oracle for the requester-list grant.
class ReferenceArbiter {
 public:
  explicit ReferenceArbiter(std::uint32_t n) : n_(n) {}
  std::uint32_t arbitrate(const std::vector<bool>& requests) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::uint32_t cand = (ptr_ + i) % n_;
      if (requests[cand]) {
        ptr_ = (cand + 1) % n_;
        return cand;
      }
    }
    return RoundRobinArbiter::kNoGrant;
  }
  [[nodiscard]] std::uint32_t pointer() const { return ptr_; }

 private:
  std::uint32_t n_;
  std::uint32_t ptr_ = 0;
};

TEST(Arbiter, GrantMatchesReferenceLoopOnRandomRequests) {
  // Every width 1..130 covers the 63/64/65 word boundary and the 80 input
  // VCs of an R(1,16,4) router. Each width starts from random pointer
  // states and sees request densities from empty to full.
  std::mt19937_64 rng(20070326);
  for (std::uint32_t n = 1; n <= 130; ++n) {
    for (int start = 0; start < 4; ++start) {
      RoundRobinArbiter arb(n);
      ReferenceArbiter ref(n);
      // Move both pointers to p by granting the lone requester p-1.
      const auto p = static_cast<std::uint32_t>(rng() % n);
      const std::uint32_t before = (p + n - 1) % n;
      std::vector<bool> mask(n, false);
      mask[before] = true;
      ASSERT_EQ(arb.grant(Reqs{before}), ref.arbitrate(mask));
      ASSERT_EQ(arb.pointer(), p);
      for (int round = 0; round < 40; ++round) {
        const std::uint64_t density = rng() % 5;  // 0/4 .. 4/4 of the width
        Reqs list;
        for (std::uint32_t i = 0; i < n; ++i) {
          mask[i] = rng() % 4 < density;
          if (mask[i]) list.push_back(i);
        }
        const std::uint32_t want = ref.arbitrate(mask);
        ASSERT_EQ(arb.grant(list), want) << "width " << n << " round " << round;
        ASSERT_EQ(arb.pointer(), ref.pointer()) << "width " << n << " round " << round;
      }
    }
  }
}

// ---- flit helpers ---------------------------------------------------------

TEST(Flit, MakeFlitMarksHeadAndTail) {
  Packet p;
  p.seq = 9;
  p.src = NodeId{1};
  p.dst = NodeId{2};
  p.flits = 4;
  const auto h = make_flit(p, 0);
  const auto b = make_flit(p, 2);
  const auto t = make_flit(p, 3);
  EXPECT_TRUE(h.head);
  EXPECT_FALSE(h.tail);
  EXPECT_FALSE(b.head);
  EXPECT_FALSE(b.tail);
  EXPECT_TRUE(t.tail);
  const auto back = packet_from_flit(t);
  EXPECT_EQ(back.seq, p.seq);
  EXPECT_EQ(back.dst, p.dst);
  EXPECT_EQ(back.flits, p.flits);
}

// ---- router test harness ---------------------------------------------------

/// Collects flits, returns credits immediately, remembers arrival times.
class CollectingSink : public FlitReceiver {
 public:
  explicit CollectingSink(Router& r) : router_(r) {}
  void bind(std::uint32_t port) { port_ = port; }
  void receive_flit(const Flit& f, std::uint32_t vc, Cycle now) override {
    arrivals.push_back({f, vc, now});
    router_.return_credit(port_, vc);
  }
  struct Arrival {
    Flit flit;
    std::uint32_t vc;
    Cycle when;
  };
  std::vector<Arrival> arrivals;

 private:
  Router& router_;
  std::uint32_t port_ = 0;
};

/// A 2-input, 2-output router where dst node 0/1 selects output 0/1.
struct RouterRig {
  Engine engine;
  ClockDomain domain{engine};
  std::unique_ptr<Router> router;
  std::unique_ptr<CollectingSink> sink0, sink1;
  std::unique_ptr<FlitInjector> inj0, inj1;

  static constexpr std::uint32_t kVcs = 2;
  static constexpr std::uint32_t kDepth = 8;

  RouterRig(std::uint32_t cycles_per_flit = 1) {
    router = std::make_unique<Router>(
        engine, domain, "rig", 2, kVcs, kDepth, /*credit_delay=*/1,
        [](const Flit& f) { return f.dst.value(); });
    sink0 = std::make_unique<CollectingSink>(*router);
    sink1 = std::make_unique<CollectingSink>(*router);
    OutputPortConfig opc;
    opc.vcs = kVcs;
    opc.credits_per_vc = kDepth;
    opc.cycles_per_flit = cycles_per_flit;
    opc.sink = sink0.get();
    sink0->bind(router->add_output(opc));
    opc.sink = sink1.get();
    sink1->bind(router->add_output(opc));
    inj0 = std::make_unique<FlitInjector>(engine, *router, 0, kVcs, kDepth, 1);
    inj1 = std::make_unique<FlitInjector>(engine, *router, 1, kVcs, kDepth, 1);
  }

  static Packet packet(std::uint64_t seq, std::uint32_t dst, std::uint32_t flits = 4) {
    Packet p;
    p.seq = seq;
    p.src = NodeId{0};
    p.dst = NodeId{dst};
    p.flits = flits;
    return p;
  }
};

TEST(Router, DeliversAWholePacket) {
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(200);
  ASSERT_EQ(rig.sink0->arrivals.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.sink0->arrivals[i].flit.index, i);
    EXPECT_EQ(rig.sink0->arrivals[i].flit.seq, 1u);
  }
  EXPECT_TRUE(rig.sink0->arrivals.back().flit.tail);
  EXPECT_TRUE(rig.sink1->arrivals.empty());
}

TEST(Router, PerPacketPipelineCostsAtLeastFourCycles) {
  // RC, VA, SA each cost a cycle, plus ST/channel: head cannot pop out in
  // fewer than 4 cycles after entering the input buffer.
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(200);
  ASSERT_FALSE(rig.sink0->arrivals.empty());
  // Injector puts the head in at cycle 1 (one channel traversal).
  EXPECT_GE(rig.sink0->arrivals[0].when, 5u);
}

TEST(Router, RoutesByDestination) {
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 1), 0));
  rig.engine.run_until(200);
  EXPECT_TRUE(rig.sink0->arrivals.empty());
  EXPECT_EQ(rig.sink1->arrivals.size(), 4u);
}

TEST(Router, TwoInputsToDifferentOutputsDontInterfere) {
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  ASSERT_TRUE(rig.inj1->try_start(RouterRig::packet(2, 1), 0));
  rig.engine.run_until(300);
  EXPECT_EQ(rig.sink0->arrivals.size(), 4u);
  EXPECT_EQ(rig.sink1->arrivals.size(), 4u);
  EXPECT_EQ(rig.sink0->arrivals[0].flit.seq, 1u);
  EXPECT_EQ(rig.sink1->arrivals[0].flit.seq, 2u);
}

TEST(Router, ContendingInputsShareOneOutputFairly) {
  RouterRig rig;
  // Stream several packets from both inputs to output 0.
  int started0 = 0, started1 = 0;
  rig.inj0->set_idle_callback([&](Cycle now) {
    if (started0 < 5) rig.inj0->try_start(RouterRig::packet(100 + ++started0, 0), now);
  });
  rig.inj1->set_idle_callback([&](Cycle now) {
    if (started1 < 5) rig.inj1->try_start(RouterRig::packet(200 + ++started1, 0), now);
  });
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(100, 0), 0));
  ASSERT_TRUE(rig.inj1->try_start(RouterRig::packet(200, 0), 0));
  rig.engine.run_until(2000);
  EXPECT_EQ(rig.sink0->arrivals.size(), 12u * 4u);
  // Both inputs made progress (strong fairness, no starvation).
  bool saw1 = false, saw2 = false;
  for (const auto& a : rig.sink0->arrivals) {
    saw1 = saw1 || (a.flit.seq >= 100u && a.flit.seq < 200u);
    saw2 = saw2 || a.flit.seq >= 200u;
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
}

TEST(Router, WormholeOrderWithinVcPreserved) {
  RouterRig rig;
  int started = 0;
  rig.inj0->set_idle_callback([&](Cycle now) {
    if (started < 4) rig.inj0->try_start(RouterRig::packet(10 + ++started, 0), now);
  });
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(10, 0), 0));
  rig.engine.run_until(2000);
  // Per-VC flit index must be monotonically consistent (EjectionUnit-style
  // check): flits of one packet never interleave within a VC.
  std::map<std::uint32_t, std::uint32_t> expect_index;
  for (const auto& a : rig.sink0->arrivals) {
    auto& idx = expect_index[a.vc];
    EXPECT_EQ(a.flit.index, idx);
    idx = a.flit.tail ? 0 : idx + 1;
  }
}

TEST(Router, ChannelSerializationPacesFlits) {
  RouterRig rig(/*cycles_per_flit=*/4);
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(400);
  ASSERT_EQ(rig.sink0->arrivals.size(), 4u);
  for (std::size_t i = 1; i < rig.sink0->arrivals.size(); ++i) {
    EXPECT_GE(rig.sink0->arrivals[i].when - rig.sink0->arrivals[i - 1].when, 4u);
  }
}

TEST(Router, CreditBackpressureNeverOverrunsSink) {
  // A sink that hoards credits: accepts `cap` flits then stalls.
  class HoardingSink : public FlitReceiver {
   public:
    HoardingSink(Router& r, std::uint32_t cap) : router_(r), cap_(cap) {}
    void bind(std::uint32_t port) { port_ = port; }
    void receive_flit(const Flit& f, std::uint32_t vc, Cycle) override {
      held.push_back({f, vc});
      ASSERT_LE(held.size(), cap_);
    }
    void release_all() {
      for (auto& [f, vc] : held) router_.return_credit(port_, vc);
      held.clear();
    }
    std::vector<std::pair<Flit, std::uint32_t>> held;

   private:
    Router& router_;
    std::uint32_t port_ = 0;
    std::uint32_t cap_;
  };

  Engine engine;
  ClockDomain domain(engine);
  Router router(engine, domain, "bp", 1, 1, 8, 1, [](const Flit&) { return 0u; });
  HoardingSink sink(router, /*cap=*/2);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 1;
  opc.credits_per_vc = 2;
  opc.cycles_per_flit = 1;
  sink.bind(router.add_output(opc));
  FlitInjector inj(engine, router, 0, 1, 8, 1);

  Packet p = RouterRig::packet(1, 0, /*flits=*/6);
  ASSERT_TRUE(inj.try_start(p, 0));
  engine.run_until(500);
  EXPECT_EQ(sink.held.size(), 2u);  // stalled at the credit limit

  engine.schedule(0, [&] { sink.release_all(); });
  engine.run_until(1000);
  EXPECT_EQ(sink.held.size(), 2u);  // next two flits arrived, stalled again
}

TEST(Router, WireDelayAddsToDelivery) {
  // Two otherwise-identical rigs; the second adds 10 cycles of wire, so
  // its clock domain must post that far ahead.
  auto run_one = [](std::uint32_t wire) {
    Engine engine;
    ClockDomain domain(engine, 1 + wire);
    Router rt(engine, domain, "wire", 1, 1, 8, 1, [](const Flit&) { return 0u; });
    CollectingSink sink(rt);
    OutputPortConfig opc;
    opc.sink = &sink;
    opc.vcs = 1;
    opc.credits_per_vc = 8;
    opc.cycles_per_flit = 1;
    opc.wire_delay = wire;
    sink.bind(rt.add_output(opc));
    FlitInjector inj(engine, rt, 0, 1, 8, 1);
    EXPECT_TRUE(inj.try_start(RouterRig::packet(1, 0), 0));
    engine.run_until(500);
    return sink.arrivals.front().when;
  };
  EXPECT_EQ(run_one(10) - run_one(0), 10u);
}

TEST(Router, MorePacketsThanDownstreamVcsStillAllFlow) {
  // 1 downstream VC, several back-to-back packets: VA must recycle the VC
  // after each tail and every packet must arrive, in order.
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "vc1", 1, 2, 8, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 1;  // single downstream VC
  opc.credits_per_vc = 4;
  opc.cycles_per_flit = 1;
  sink.bind(rt.add_output(opc));
  FlitInjector inj(engine, rt, 0, 2, 8, 1);
  int started = 0;
  inj.set_idle_callback([&](Cycle now) {
    if (started < 6) inj.try_start(RouterRig::packet(10 + static_cast<unsigned>(++started), 0), now);
  });
  ASSERT_TRUE(inj.try_start(RouterRig::packet(10, 0), 0));
  engine.run_until(5000);
  EXPECT_EQ(sink.arrivals.size(), 7u * 4u);
  // Single VC: strict packet order end to end.
  std::uint64_t last_seq = 0;
  for (const auto& a : sink.arrivals) {
    EXPECT_GE(a.flit.seq, last_seq);
    last_seq = a.flit.seq;
  }
}

TEST(Router, CountersTrackTraffic) {
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(200);
  const auto& c = rig.router->counters();
  EXPECT_EQ(c.flits_in, 4u);
  EXPECT_EQ(c.flits_out, 4u);
  EXPECT_EQ(c.packets_routed, 1u);
  EXPECT_EQ(c.va_grants, 1u);
  EXPECT_EQ(c.sa_grants, 4u);
}

TEST(Router, QuiescentAfterDrain) {
  RouterRig rig;
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(500);
  EXPECT_TRUE(rig.router->quiescent());
  EXPECT_FALSE(rig.domain.running());  // domain went back to sleep
}

/// One input with two VCs feeding one single-VC output at a flit per cycle;
/// tests drive it with accept_flit directly so every flit's arrival is known.
struct DirectRig {
  Engine engine;
  ClockDomain domain{engine};
  Router router{engine, domain, "direct", 1, 2, 8, 1, [](const Flit&) { return 0u; }};
  CollectingSink sink{router};

  DirectRig() {
    OutputPortConfig opc;
    opc.sink = &sink;
    opc.vcs = 1;
    opc.credits_per_vc = 8;
    opc.cycles_per_flit = 1;
    sink.bind(router.add_output(opc));
  }

  /// Buffers a whole two-flit packet on `vc`.
  void accept_packet(std::uint64_t seq, std::uint32_t vc) {
    const Packet p = RouterRig::packet(seq, 0, /*flits=*/2);
    router.accept_flit(0, vc, make_flit(p, 0), engine.now());
    router.accept_flit(0, vc, make_flit(p, 1), engine.now());
  }
};

TEST(Router, QuiescentFromFirstHeadUntilLastVcGoesIdle) {
  DirectRig rig;
  EXPECT_TRUE(rig.router.quiescent());
  const Packet p = RouterRig::packet(1, 0, /*flits=*/2);
  rig.router.accept_flit(0, 0, make_flit(p, 0), 0);
  EXPECT_FALSE(rig.router.quiescent());
  rig.router.accept_flit(0, 0, make_flit(p, 1), 0);
  rig.accept_packet(2, 1);
  // Both VCs hold their whole packet, so a VC goes Idle exactly when its
  // tail leaves; the router is quiescent only once both tails have left.
  // VC 1 waits for the single downstream VC, so VC 0 goes Idle first.
  bool saw_one_vc_idle = false;
  for (Cycle t = 1; t < 100; ++t) {
    rig.engine.run_until(t);
    const auto out = rig.router.counters().flits_out;
    saw_one_vc_idle = saw_one_vc_idle || out == 2;
    EXPECT_EQ(rig.router.quiescent(), out == 4) << "cycle " << t;
  }
  EXPECT_TRUE(saw_one_vc_idle);
  EXPECT_TRUE(rig.router.quiescent());
  EXPECT_FALSE(rig.domain.running());
}

TEST(Router, TailWithQueuedHeadBehindKeepsRouterBusy) {
  DirectRig rig;
  rig.accept_packet(1, 0);
  rig.accept_packet(2, 0);  // queued behind packet 1 on the same VC
  Cycle t = 0;
  while (rig.router.counters().flits_out < 2) rig.engine.run_until(++t);
  // Packet 1's tail left and the VC went straight back to Routing.
  EXPECT_EQ(rig.router.vc_occupancy(0, 0), 2u);
  EXPECT_FALSE(rig.router.quiescent());
  rig.engine.run_until(t + 100);
  EXPECT_EQ(rig.router.counters().flits_out, 4u);
  EXPECT_EQ(rig.router.counters().packets_routed, 2u);
  EXPECT_TRUE(rig.router.quiescent());
}

TEST(Router, IdleInputSkipKeepsRoundRobinOrder) {
  // Inputs 1 and 3 of four carry traffic; inputs 0 and 2 stay idle, so a
  // busy tick skips them. Both packets win a downstream VC and then share
  // the output flit by flit: round-robin SA must alternate 1, 3, 1, 3 as
  // if every input were scanned. The second round reuses the same inputs
  // after their VCs went Idle, so each port's count drops to 0 and comes
  // back.
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "skip", 4, 2, 8, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 2;
  opc.credits_per_vc = 8;
  opc.cycles_per_flit = 1;
  sink.bind(rt.add_output(opc));
  auto send = [&](std::uint32_t in, std::uint32_t vc, std::uint64_t seq) {
    const Packet p = RouterRig::packet(seq, 0, /*flits=*/4);
    for (std::uint32_t i = 0; i < 4; ++i) rt.accept_flit(in, vc, make_flit(p, i), engine.now());
  };
  send(1, 0, 1);
  send(3, 0, 2);
  engine.run_until(100);
  ASSERT_TRUE(rt.quiescent());
  send(1, 1, 3);
  send(3, 1, 4);
  engine.run_until(200);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  for (const auto& a : sink.arrivals) got.emplace_back(a.flit.seq, a.flit.index);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> want;
  for (const std::uint64_t first : {1u, 3u}) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      want.emplace_back(first, i);      // input 1
      want.emplace_back(first + 1, i);  // input 3
    }
  }
  EXPECT_EQ(got, want);
  for (std::size_t k = 1; k < sink.arrivals.size(); ++k) {
    if (k == 8) continue;  // the second round starts at cycle 100
    EXPECT_EQ(sink.arrivals[k].when, sink.arrivals[k - 1].when + 1) << "flit " << k;
  }
  EXPECT_TRUE(sink.arrivals.back().flit.tail);
  EXPECT_TRUE(rt.quiescent());
  EXPECT_EQ(rt.counters().sa_conflicts, 7u + 7u);
}

TEST(Router, TickingAQuiescentRouterChangesNothing) {
  // Two rigs with one history; one also sees ticks while quiescent. Its
  // counters must not move, and contended traffic afterwards — whose grant
  // order depends on every VA/SA arbiter pointer — must flow identically.
  RouterRig a, b;
  auto run = [](RouterRig& rig, std::uint64_t base, Cycle until) {
    ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(base, 0), rig.engine.now()));
    ASSERT_TRUE(rig.inj1->try_start(RouterRig::packet(base + 1, 0), rig.engine.now()));
    rig.engine.run_until(until);
  };
  run(a, 10, 500);
  run(b, 10, 500);
  ASSERT_TRUE(b.router->quiescent());
  const auto before = b.router->counters();
  for (Cycle t = 500; t < 600; ++t) b.router->tick(t);
  const auto& after = b.router->counters();
  EXPECT_EQ(after.flits_in, before.flits_in);
  EXPECT_EQ(after.flits_out, before.flits_out);
  EXPECT_EQ(after.packets_routed, before.packets_routed);
  EXPECT_EQ(after.va_grants, before.va_grants);
  EXPECT_EQ(after.sa_grants, before.sa_grants);
  EXPECT_EQ(after.sa_conflicts, before.sa_conflicts);
  EXPECT_TRUE(b.router->quiescent());

  run(a, 20, 1500);
  run(b, 20, 1500);
  ASSERT_EQ(a.sink0->arrivals.size(), b.sink0->arrivals.size());
  for (std::size_t i = 0; i < a.sink0->arrivals.size(); ++i) {
    EXPECT_EQ(a.sink0->arrivals[i].flit.seq, b.sink0->arrivals[i].flit.seq) << i;
    EXPECT_EQ(a.sink0->arrivals[i].vc, b.sink0->arrivals[i].vc) << i;
    EXPECT_EQ(a.sink0->arrivals[i].when, b.sink0->arrivals[i].when) << i;
  }
  EXPECT_EQ(a.router->counters().sa_conflicts, b.router->counters().sa_conflicts);
}

TEST(Router, AddOutputAfterFirstFlitThrows) {
  DirectRig rig;
  rig.accept_packet(1, 0);
  OutputPortConfig opc;
  opc.sink = &rig.sink;
  EXPECT_THROW(rig.router.add_output(opc), erapid::ModelInvariantError);
}

TEST(Router, BodyFlitToIdleVcThrows) {
  RouterRig rig;
  Packet p = RouterRig::packet(1, 0);
  Flit body = make_flit(p, 1);
  EXPECT_THROW(rig.router->accept_flit(0, 0, body, 0), erapid::ModelInvariantError);
}

TEST(Router, VcRingWrapsInWormholeOrderBehindASlowSink) {
  // One input VC four flits deep, drained at a flit per 3 cycles while the
  // upstream refills it on every credit: the ring stays full and its head
  // laps it nearly seven times. Packets shorter and longer than the ring
  // must leave in exactly the order they came, and occupancy never passes
  // the depth.
  constexpr std::uint32_t kDepth = 4;
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "ring", 1, 1, kDepth, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 1;
  opc.credits_per_vc = 8;
  opc.cycles_per_flit = 3;
  sink.bind(rt.add_output(opc));
  std::uint32_t credits = kDepth;
  rt.set_credit_return(0, [&credits](std::uint32_t, Cycle) { ++credits; });

  std::vector<Flit> stream;
  std::uint64_t seq = 0;
  for (const std::uint32_t len : {3u, 5u, 1u, 7u, 2u, 6u, 3u}) {
    const Packet p = RouterRig::packet(++seq, 0, len);
    for (std::uint32_t i = 0; i < len; ++i) stream.push_back(make_flit(p, i));
  }
  ASSERT_GT(stream.size(), 4u * kDepth);

  std::size_t sent = 0;
  std::size_t peak = 0;
  std::function<void()> feed = [&] {
    while (sent < stream.size() && credits > 0) {
      rt.accept_flit(0, 0, stream[sent++], engine.now());
      --credits;
    }
    peak = std::max(peak, rt.vc_occupancy(0, 0));
    EXPECT_LE(rt.vc_occupancy(0, 0), kDepth) << "cycle " << engine.now();
    if (sent < stream.size()) engine.schedule(1, feed);
  };
  engine.schedule(0, feed);
  engine.run_until(10000);

  EXPECT_EQ(peak, kDepth);  // the ring really filled
  ASSERT_EQ(sink.arrivals.size(), stream.size());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    EXPECT_EQ(sink.arrivals[k].flit.seq, stream[k].seq) << "flit " << k;
    EXPECT_EQ(sink.arrivals[k].flit.index, stream[k].index) << "flit " << k;
  }
  ASSERT_TRUE(rt.quiescent());

  // 27 flits left the head three slots into the ring: fill it across the
  // wrap, and one more flit than the credits allow still throws.
  const Packet big = RouterRig::packet(++seq, 0, kDepth + 1);
  for (std::uint32_t i = 0; i < kDepth; ++i) rt.accept_flit(0, 0, make_flit(big, i), engine.now());
  EXPECT_EQ(rt.vc_occupancy(0, 0), kDepth);
  EXPECT_THROW(rt.accept_flit(0, 0, make_flit(big, kDepth), engine.now()),
               erapid::ModelInvariantError);
}

// ---- live-set edges ------------------------------------------------------------

/// One output port of `vcs` downstream VCs at a flit per cycle, bound to `sink`.
void add_fast_output(Router& rt, CollectingSink& sink, std::uint32_t vcs) {
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = vcs;
  opc.credits_per_vc = 8;
  opc.cycles_per_flit = 1;
  sink.bind(rt.add_output(opc));
}

/// Buffers a whole packet of `flits` flits on (in, vc) at the current cycle.
void accept_whole(Engine& engine, Router& rt, std::uint32_t in, std::uint32_t vc,
                  std::uint64_t seq, std::uint32_t flits) {
  const Packet p = RouterRig::packet(seq, 0, flits);
  for (std::uint32_t i = 0; i < flits; ++i) rt.accept_flit(in, vc, make_flit(p, i), engine.now());
}

TEST(Router, TopVcOfASixtyFourVcPortCarriesAPacket) {
  // VC 63 is the top bit of the port's live mask.
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "wide", 1, Router::kMaxVcsPerInput, 4, 1,
            [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  add_fast_output(rt, sink, 1);
  accept_whole(engine, rt, 0, 63, 7, 4);
  EXPECT_FALSE(rt.quiescent());
  engine.run_until(100);
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrivals[i].flit.seq, 7u);
    EXPECT_EQ(sink.arrivals[i].flit.index, i);
  }
  EXPECT_EQ(rt.vc_occupancy(0, 63), 0u);
  EXPECT_EQ(rt.counters().packets_routed, 1u);
  EXPECT_TRUE(rt.quiescent());
  EXPECT_THROW((Router{engine, domain, "too_wide", 1, Router::kMaxVcsPerInput + 1, 4, 1,
                       [](const Flit&) { return 0u; }}),
               erapid::ModelInvariantError);
}

TEST(Router, InputInTheSecondLiveWordContendsFairly) {
  // 65 inputs: input 64 is bit 0 of the live-port set's second word. It and
  // input 0 each win a downstream VC, then share the output flit by flit,
  // so SA must alternate 0, 64, 0, 64 in consecutive cycles; once both
  // tails leave, both words are empty and the router is quiescent.
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "many", 65, 1, 8, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  add_fast_output(rt, sink, 2);
  accept_whole(engine, rt, 64, 0, 2, 4);
  accept_whole(engine, rt, 0, 0, 1, 4);
  engine.run_until(100);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  for (const auto& a : sink.arrivals) got.emplace_back(a.flit.seq, a.flit.index);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> want;
  for (std::uint32_t i = 0; i < 4; ++i) {
    want.emplace_back(1, i);  // input 0
    want.emplace_back(2, i);  // input 64
  }
  EXPECT_EQ(got, want);
  for (std::size_t k = 1; k < sink.arrivals.size(); ++k) {
    EXPECT_EQ(sink.arrivals[k].when, sink.arrivals[k - 1].when + 1) << "flit " << k;
  }
  EXPECT_EQ(rt.counters().sa_conflicts, 7u);
  EXPECT_TRUE(rt.quiescent());
}

TEST(Router, VcsGoingLiveOutOfOrderNominateRoundRobin) {
  // VCs 3, 0 and 2 of one port go live in that order in one cycle. Each
  // wins a downstream VC, and the port's SA arbiter must then serve them
  // in ascending round-robin order 0, 2, 3 — not in the order they woke.
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "order", 1, 4, 8, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  add_fast_output(rt, sink, 4);
  for (const std::uint32_t vc : {3u, 0u, 2u}) accept_whole(engine, rt, 0, vc, 10 + vc, 4);
  engine.run_until(100);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  for (const auto& a : sink.arrivals) got.emplace_back(a.flit.seq, a.flit.index);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> want;
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (const std::uint64_t seq : {10u, 12u, 13u}) want.emplace_back(seq, i);
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(rt.quiescent());
}

// ---- FlitInjector / EjectionUnit -------------------------------------------

TEST(Injector, BusyWhileStreamingIdleAfterTail) {
  RouterRig rig;
  EXPECT_FALSE(rig.inj0->busy());
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  EXPECT_TRUE(rig.inj0->busy());
  EXPECT_FALSE(rig.inj0->try_start(RouterRig::packet(2, 0), 0));
  rig.engine.run_until(300);
  EXPECT_FALSE(rig.inj0->busy());
  EXPECT_EQ(rig.inj0->packets_sent(), 1u);
}

TEST(Injector, IdleCallbackFires) {
  RouterRig rig;
  int idle_calls = 0;
  rig.inj0->set_idle_callback([&](Cycle) { ++idle_calls; });
  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_until(300);
  EXPECT_EQ(idle_calls, 1);
}

/// A clocked component that runs `fn` on every tick; always quiescent.
struct TickProbe : erapid::des::Clocked {
  std::function<void(Cycle)> fn;
  void tick(Cycle now) override { fn(now); }
  [[nodiscard]] bool quiescent() const override { return true; }
};

// A flit posted for cycle t is in the router's input buffer before any
// component ticks at t, and the post is no calendar event of its own.
TEST(Injector, FirstFlitIsInTheRouterBeforeThatCyclesRouterTick) {
  Engine engine;
  ClockDomain domain(engine);
  TickProbe ahead;  // registered first: ticks before the router
  domain.add(ahead);
  Router rt(engine, domain, "first", 1, 1, 8, 1, [](const Flit&) { return 0u; });
  CollectingSink sink(rt);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 1;
  opc.cycles_per_flit = 1;
  sink.bind(rt.add_output(opc));
  FlitInjector inj(engine, rt, 0, 1, 8, /*cycles_per_flit=*/4);
  std::map<Cycle, std::size_t> buffered;  // input-VC occupancy as each tick starts
  ahead.fn = [&](Cycle now) { buffered[now] = rt.vc_occupancy(0, 0); };

  ASSERT_TRUE(inj.try_start(RouterRig::packet(1, 0), 0));
  EXPECT_EQ(engine.queue_size(), 1u);  // the domain's first tick, nothing else
  engine.run_until(4);
  EXPECT_EQ(buffered[3], 0u);
  EXPECT_EQ(buffered[4], 1u);
}

// Input buffer of 2, downstream window of 1 that the sink releases only
// at cycle 50: the injector stalls on credits, and once the router
// forwards the next flit at cycle s the freed credit returns at s + 1
// (credit_delay) and the stream resumes with a flit at s + 2.
TEST(Injector, StalledStreamResumesOneCycleAfterItsCreditReturns) {
  class HoldingSink : public FlitReceiver {
   public:
    explicit HoldingSink(Router& r) : router_(r) {}
    void bind(std::uint32_t port) { port_ = port; }
    void receive_flit(const Flit&, std::uint32_t, Cycle) override {}
    void release_one() { router_.return_credit(port_, 0); }

   private:
    Router& router_;
    std::uint32_t port_ = 0;
  };
  Engine engine;
  ClockDomain domain(engine);
  Router rt(engine, domain, "stall", 1, 1, /*vc_depth=*/2, /*credit_delay=*/1,
            [](const Flit&) { return 0u; });
  HoldingSink sink(rt);
  OutputPortConfig opc;
  opc.sink = &sink;
  opc.vcs = 1;
  opc.credits_per_vc = 1;
  opc.cycles_per_flit = 1;
  sink.bind(rt.add_output(opc));
  FlitInjector inj(engine, rt, 0, 1, /*credits_per_vc=*/2, 1);
  TickProbe after;  // registered last: sees each tick's outcome
  domain.add(after);
  std::map<Cycle, std::uint64_t> in, out;
  after.fn = [&](Cycle now) {
    in[now] = rt.counters().flits_in;
    out[now] = rt.counters().flits_out;
  };

  ASSERT_TRUE(inj.try_start(RouterRig::packet(1, 0, /*flits=*/6), 0));
  engine.schedule_at(50, [&] { sink.release_one(); });
  engine.run_until(60);
  EXPECT_EQ(in[49], 3u);  // 2 buffered + the one the first forward freed
  Cycle s = 50;
  while (s < 60 && out[s] < 2) ++s;  // the second forward
  ASSERT_LT(s, 58u);
  EXPECT_EQ(in[s + 1], 3u);
  EXPECT_EQ(in[s + 2], 4u);
}

// The domain ticks while a hand-off is pending even though the router is
// quiescent, and sleeps at the cycle the last one runs.
TEST(Injector, DomainSleepsOnceNoPostIsPendingAndEveryRouterIsQuiescent) {
  RouterRig rig(/*cycles_per_flit=*/4);
  TickProbe after;
  rig.domain.add(after);
  std::map<Cycle, bool> quiet;  // router quiescence after each tick
  after.fn = [&](Cycle now) { quiet[now] = rig.router->quiescent(); };

  ASSERT_TRUE(rig.inj0->try_start(RouterRig::packet(1, 0), 0));
  rig.engine.run_all();
  ASSERT_EQ(rig.sink0->arrivals.size(), 4u);
  const Cycle tail = rig.sink0->arrivals.back().when;
  EXPECT_EQ(quiet.rbegin()->first, tail);  // last tick: the tail's arrival
  EXPECT_TRUE(quiet[tail - 1]);            // ticked only for the pending post
  EXPECT_FALSE(rig.domain.running());
  EXPECT_EQ(rig.engine.queue_size(), 0u);
}

TEST(Ejection, ReassemblesPackets) {
  Engine engine;
  ClockDomain domain(engine);
  Router router(engine, domain, "ej", 1, 2, 8, 1, [](const Flit&) { return 0u; });
  std::vector<Packet> got;
  EjectionUnit ej(router, 2, [&](const Packet& p, Cycle) { got.push_back(p); });
  OutputPortConfig opc;
  opc.sink = &ej;
  opc.vcs = 2;
  opc.credits_per_vc = 8;
  opc.cycles_per_flit = 4;
  ej.bind(router.add_output(opc));
  FlitInjector inj(engine, router, 0, 2, 8, 4);

  ASSERT_TRUE(inj.try_start(RouterRig::packet(7, 0, 8), 0));
  engine.run_until(500);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 7u);
  EXPECT_EQ(got[0].flits, 8u);
  EXPECT_EQ(ej.packets_ejected(), 1u);
}

}  // namespace
