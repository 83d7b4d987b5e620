// Multi-tenant open-loop session generator.
//
// Emulates N concurrent users of the interconnect (the tenant-mixed
// datacenter traffic the Hierarchical WDM DCN work assumes): each tenant
// runs an independent seeded arrival process — geometric gaps with mean
// `session_gap_mean` between session starts — and every session injects
// open-loop traffic of one pattern (drawn uniformly from the tenant's mix)
// for `session_cycles`, at `tenant_load` x capacity aggregate rate.
// Sessions of one tenant may overlap; tenants are fully independent.
//
// Determinism contract: tenant t's RNG is the t-th fork of the fleet
// master (forked in tenant order at construction), each session forks its
// own stream from its tenant's RNG at arrival, and all randomness is
// consumed inside DES events — so the injection stream is a pure function
// of (seed, config) and two same-seed runs are byte-identical. Delivered
// bytes are attributed per tenant via Packet::tenant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "router/flit.hpp"
#include "traffic/patterns.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/driver.hpp"
#include "workload/stats.hpp"

namespace erapid::workload {

struct TenantFleetConfig {
  std::uint32_t num_nodes = 0;
  std::uint32_t tenants = 1;
  std::uint32_t packet_flits = 8;
  std::uint32_t flit_bytes = 8;
  /// Aggregate injection rate of one active session, packets/cycle.
  double session_rate_pkt_cycle = 0.0;
  CycleDelta session_cycles = 4000;
  CycleDelta session_gap_mean = 2000;
  double hotspot_fraction = 0.2;  ///< shape of hotspot mix entries
  std::uint32_t hotspot_node = 0;
};

/// The tenant fleet (see file comment). Runs under the open-loop
/// warmup/measure/drain methodology, like the Bernoulli sources it
/// replaces.
class TenantFleet final : public Driver {
 public:
  TenantFleet(des::Engine& engine, TenantFleetConfig cfg,
              std::vector<traffic::PatternKind> mix, util::Rng master, InjectFn inject);

  /// Schedules every tenant's first session arrival. Call exactly once.
  void start() override;

  /// Cancels all pending arrivals, session ends and injections.
  void stop() override;

  void set_labelling(bool on) override { labelling_ = on; }

  /// Per-tenant byte attribution.
  void on_delivered(const router::Packet& p, Cycle now) override;

  /// Tenant/session/byte accounting for the report's workload block.
  [[nodiscard]] WorkloadStats stats() const override;

 private:
  struct Tenant {
    util::Rng rng;
    des::EventHandle next_arrival;
    std::uint64_t sessions_started = 0;
  };
  struct Session {
    std::uint32_t tenant = 0;
    util::Rng rng;
    std::size_t pattern = 0;  ///< index into patterns_
    bool active = false;
    des::EventHandle next_inject;
    des::EventHandle end_event;
  };

  void schedule_arrival(std::uint32_t tenant);
  void begin_session(std::uint32_t tenant);
  void end_session(std::size_t session);
  void schedule_inject(std::size_t session);
  void inject(std::size_t session);

  des::Engine& engine_;
  TenantFleetConfig cfg_;
  std::vector<std::unique_ptr<traffic::TrafficPattern>> patterns_;
  InjectFn inject_;

  std::vector<Tenant> tenants_;
  std::vector<std::unique_ptr<Session>> sessions_;
  bool started_ = false;
  bool labelling_ = false;
  std::uint64_t generated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t sessions_completed_ = 0;
  std::vector<std::uint64_t> tenant_bytes_;
  PacketSeq next_seq_ = 1;
};

}  // namespace erapid::workload
