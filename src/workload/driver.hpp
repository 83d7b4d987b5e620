// The traffic side of a run, behind one narrow interface. sim::Simulation
// builds one Driver from `workload.kind` and runs it without knowing the
// kind: start, labelling on/off around the measurement interval, every
// delivery and ARQ dead letter fed back, done() polled, stats() read.
// Implementations: BernoulliDriver and TraceDriver (here), TenantFleet
// (tenants.hpp) and PhaseEngine (phase.hpp). The defaults cover what a kind
// does not use: open-loop drivers never complete, completion-bounded ones
// label every packet and have nothing to stop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "des/engine.hpp"
#include "router/flit.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/stats.hpp"

namespace erapid::workload {

/// Hands one generated packet to the network.
using InjectFn = std::function<void(const router::Packet&, Cycle)>;

class Driver {
 public:
  Driver() = default;
  Driver(const Driver&) = delete;  // engine events hold `this`: never copied or moved
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;

  /// Begins injecting at engine.now(). Call exactly once.
  virtual void start() = 0;
  /// Cancels every pending injection.
  virtual void stop() {}
  /// From now on, generated packets are tagged labelled = `on`.
  virtual void set_labelling(bool /*on*/) {}
  /// Feed of every delivered packet.
  virtual void on_delivered(const router::Packet& /*p*/, Cycle /*now*/) {}
  /// Feed of ARQ dead letters: an abandoned packet can never arrive, so
  /// completion-bounded drivers count it as resolved.
  virtual void on_dead_letter(const router::Packet& /*p*/, Cycle /*now*/) {}

  /// True once every packet of a completion-bounded workload has resolved.
  [[nodiscard]] virtual bool done() const { return false; }
  /// Accounting for the report's workload block (inactive: no block).
  [[nodiscard]] virtual WorkloadStats stats() const { return {}; }
  /// Packets injected so far.
  [[nodiscard]] virtual std::uint64_t generated() const { return stats().packets_injected; }
  /// Phase currently injecting or draining, or "" — the label telemetry
  /// windows carry.
  [[nodiscard]] virtual std::string_view active_phase() const { return {}; }
};

/// Independent Bernoulli sources on every node of `pattern` (paper §4).
class BernoulliDriver final : public Driver {
 public:
  /// Source n draws from the n-th fork of `master` and, once started,
  /// injects at `rate` packets/node/cycle.
  BernoulliDriver(des::Engine& engine, traffic::TrafficPattern pattern,
                  std::uint32_t packet_flits, double rate, util::Rng master,
                  const InjectFn& inject);

  void start() override;
  void stop() override;
  void set_labelling(bool on) override;
  [[nodiscard]] std::uint64_t generated() const override;

 private:
  traffic::TrafficPattern pattern_;  ///< referenced by every source
  double rate_;
  bool started_ = false;
  std::vector<std::unique_ptr<traffic::NodeSource>> sources_;
};

/// Replays a trace: one injection event per entry, offset from the start
/// cycle, every packet labelled. Done once every entry is injected and
/// every packet delivered or dead-lettered; the completion cycle is the
/// cycle of that last resolution.
class TraceDriver final : public Driver {
 public:
  TraceDriver(des::Engine& engine, traffic::Trace trace, std::uint32_t packet_flits,
              std::uint32_t flit_bytes, InjectFn inject);

  void start() override;
  void on_delivered(const router::Packet& p, Cycle now) override;
  void on_dead_letter(const router::Packet& p, Cycle now) override;
  [[nodiscard]] bool done() const override { return stats_.completed; }
  [[nodiscard]] WorkloadStats stats() const override { return stats_; }

 private:
  void inject(const traffic::TraceEvent& e);
  void resolve_one(Cycle now);
  [[nodiscard]] std::uint64_t unresolved() const {
    return stats_.packets_injected - stats_.packets_delivered - stats_.packets_dead;
  }

  des::Engine& engine_;
  traffic::Trace trace_;
  std::uint32_t packet_flits_;
  std::uint32_t flit_bytes_;
  InjectFn inject_;
  bool started_ = false;
  PacketSeq next_seq_ = 1;
  WorkloadStats stats_;
};

}  // namespace erapid::workload
