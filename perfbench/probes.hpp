// Layer probes: single layers timed in isolation through their public
// functions, for the per-layer metrics the traced simulation runs cannot
// separate (the DES queue itself, the DBR allocator at sizes no workload
// reaches, and a router with no network around it).
#pragma once

#include <cstddef>
#include <cstdint>

#include "des/event_queue.hpp"

namespace perfbench {

/// Hold model on a bare des::Engine: `depth` pending events, each of which
/// schedules one successor 1..128 cycles ahead when it fires, so the
/// calendar stays at `depth` entries. Returns thread-CPU ns per event over
/// `events` dispatches.
double hold_ns_per_event(erapid::des::QueueKind kind, std::size_t depth,
                         std::uint64_t events, std::uint64_t seed);

/// reconfig::allocate_lanes on a destination with `boards` incoming flows
/// and wavelengths: odd sources over-utilized, even ones idle, lane 0
/// dark. Returns thread-CPU ns per call, timed for at least `min_cpu_s`.
double allocate_lanes_ns(std::uint32_t boards, double min_cpu_s);

/// Standalone 4x4 router::Router fed 8-flit packets on every input at full
/// rate (the shape of bench_micro_kernel's BM_router_flit_throughput).
/// Returns flits delivered per thread-CPU second, timed for at least
/// `min_cpu_s`.
double router_flits_per_s(double min_cpu_s);

}  // namespace perfbench
