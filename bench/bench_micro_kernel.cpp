// Microbenchmarks of the simulator substrates: DES event throughput,
// router flit throughput, arbiter and RNG. The DBR allocator and full-system
// cycles/s are measured by perfbench (reconfig.allocate_lanes_ns.*,
// sim_cycles_per_s).
#include <benchmark/benchmark.h>

#include "des/clock.hpp"
#include "des/engine.hpp"
#include "router/arbiter.hpp"
#include "router/injector.hpp"
#include "router/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace erapid;

void BM_engine_schedule_run(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine e;
    for (int i = 0; i < 1000; ++i) e.schedule(static_cast<Cycle>(i % 97 + 1), [] {});
    benchmark::DoNotOptimize(e.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_engine_schedule_run);

void BM_engine_cancellation(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine e;
    std::vector<des::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(e.schedule(static_cast<Cycle>(i + 1), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    benchmark::DoNotOptimize(e.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_engine_cancellation);

void BM_rng_next(benchmark::State& state) {
  util::Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_rng_next);

void BM_rng_bernoulli(benchmark::State& state) {
  util::Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.next_bernoulli(0.3) ? 1 : 0;
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_rng_bernoulli);

void BM_arbiter(benchmark::State& state) {
  router::RoundRobinArbiter arb(16);
  std::vector<std::uint32_t> req(16);
  for (std::uint32_t i = 0; i < req.size(); ++i) req[i] = i;
  std::uint32_t acc = 0;
  for (auto _ : state) acc += arb.grant(req);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_arbiter);

// Router flit throughput: stream packets through a 4x4 router at full rate.
void BM_router_flit_throughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine engine;
    des::ClockDomain domain(engine);
    router::Router rt(engine, domain, "micro", 4, 4, 8, 1,
                      [](const router::Flit& f) { return f.dst.value() % 4; });
    struct Sink : router::FlitReceiver {
      router::Router* rt;
      std::uint32_t port;
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
    for (auto& s : sinks) total += s->flits;
    benchmark::DoNotOptimize(total);
    state.SetItemsProcessed(state.items_processed() + static_cast<std::int64_t>(total));
  }
}
BENCHMARK(BM_router_flit_throughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
