#include "probes.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "profiler.hpp"
#include "reconfig/allocation.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace erapid;

double hold_ns_per_event(des::QueueKind kind, std::size_t depth, std::uint64_t events,
                         std::uint64_t seed) {
  struct Hold {
    des::Engine engine;
    util::Rng rng;
    std::uint64_t remaining;
    Hold(des::QueueKind k, std::uint64_t s, std::uint64_t n)
        : engine(k), rng(s), remaining(n) {}
    // Near-future delays, like the simulator's clock ticks, flit hops and
    // lane serializations; all stay inside the calendar queue's wheel.
    void arm() { engine.schedule(1 + rng.next() % 128, [this] { fire(); }); }
    void fire() {
      if (remaining == 0) return;
      --remaining;
      arm();
    }
  };
  Hold h(kind, seed, events);
  for (std::size_t i = 0; i < depth; ++i) h.arm();
  const std::int64_t t0 = thread_cpu_ns();
  const std::uint64_t executed = h.engine.run_all();
  const std::int64_t t1 = thread_cpu_ns();
  if (executed < events) throw std::runtime_error("hold model lost events");
  return static_cast<double>(t1 - t0) / static_cast<double>(executed);
}

double allocate_lanes_ns(std::uint32_t boards, double min_cpu_s) {
  std::vector<reconfig::FlowStatsEntry> flows;
  for (std::uint32_t s = 1; s < boards; ++s) {
    const bool over = s % 2 == 1;
    flows.push_back({BoardId{s}, over ? 0.9 : 0.0, over ? 5u : 0u, 1});
  }
  std::vector<reconfig::LaneOwnership> lanes;
  for (std::uint32_t w = 0; w < boards; ++w) {
    lanes.push_back({WavelengthId{w}, w != 0 ? BoardId{w} : BoardId{}});
  }
  const reconfig::DbrPolicy policy{};
  std::uint64_t calls = 0;
  std::uint64_t moves = 0;
  const std::int64_t t0 = thread_cpu_ns();
  std::int64_t t1 = t0;
  while (static_cast<double>(t1 - t0) < min_cpu_s * 1e9) {
    for (int i = 0; i < 256; ++i) {
      moves += reconfig::allocate_lanes(BoardId{0}, flows, lanes, policy,
                                        power::PowerLevel::High)
                   .size();
    }
    calls += 256;
    t1 = thread_cpu_ns();
  }
  // Every call on this fixture moves the idle flows' lanes.
  if (moves == 0) throw std::runtime_error("allocate_lanes fixture moved no lane");
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

namespace {

/// One 4x4 router stream; returns the flits its sinks received.
std::uint64_t router_stream_once() {
  des::Engine engine;
  des::ClockDomain domain(engine);
  router::Router rt(engine, domain, "perfbench", 4, 4, 8, 1,
                    [](const router::Flit& f) { return f.dst.value() % 4; });
  struct Sink : router::FlitReceiver {
    router::Router* rt = nullptr;
    std::uint32_t port = 0;
    std::uint64_t flits = 0;
    void receive_flit(const router::Flit&, std::uint32_t vc, Cycle) override {
      ++flits;
      rt->return_credit(port, vc);
    }
  };
  std::vector<std::unique_ptr<Sink>> sinks;
  for (int i = 0; i < 4; ++i) {
    auto s = std::make_unique<Sink>();
    s->rt = &rt;
    router::OutputPortConfig opc;
    opc.sink = s.get();
    opc.vcs = 4;
    opc.credits_per_vc = 8;
    opc.cycles_per_flit = 1;
    s->port = rt.add_output(opc);
    sinks.push_back(std::move(s));
  }
  std::vector<std::unique_ptr<router::FlitInjector>> injectors;
  std::vector<std::uint64_t> sent(4, 0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    injectors.push_back(std::make_unique<router::FlitInjector>(engine, rt, i, 4, 8, 1));
    auto* inj = injectors.back().get();
    auto feed = [inj, i, &sent](Cycle now) {
      if (sent[i] >= 50) return;
      router::Packet p;
      p.seq = ++sent[i];
      p.src = NodeId{i};
      p.dst = NodeId{(i + 1) % 4};
      p.flits = 8;
      inj->try_start(p, now);
    };
    inj->set_idle_callback(feed);
    feed(0);
  }
  engine.run_until(100000);
  std::uint64_t total = 0;
  for (const auto& s : sinks) total += s->flits;
  return total;
}

}  // namespace

double router_flits_per_s(double min_cpu_s) {
  std::uint64_t flits = 0;
  const std::int64_t t0 = thread_cpu_ns();
  std::int64_t t1 = t0;
  while (static_cast<double>(t1 - t0) < min_cpu_s * 1e9) {
    const std::uint64_t got = router_stream_once();
    // 4 inputs x 50 packets x 8 flits, all delivered within the horizon.
    if (got != 4 * 50 * 8) throw std::runtime_error("router stream lost flits");
    flits += got;
    t1 = thread_cpu_ns();
  }
  return static_cast<double>(flits) / (static_cast<double>(t1 - t0) * 1e-9);
}

}  // namespace perfbench
