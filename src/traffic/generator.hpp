// Bernoulli packet sources (paper §4: "Packets were injected according to
// Bernoulli process based on the network load").
//
// Each node has an independent source injecting fixed-size packets with
// per-cycle probability p = load (packets/node/cycle). We sample the
// geometric inter-arrival gap directly instead of running a per-cycle
// trial, which is statistically identical for a Bernoulli process and
// keeps the event count proportional to traffic, not to simulated time.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>

#include "des/engine.hpp"
#include "router/flit.hpp"
#include "traffic/patterns.hpp"
#include "util/rng.hpp"

namespace erapid::traffic {

/// Cycles until the next success of a Bernoulli process with per-cycle
/// probability `rate` (support {1, 2, ...}), by inverse-transform sampling.
[[nodiscard]] inline CycleDelta geometric_gap(util::Rng& rng, double rate) {
  if (rate >= 1.0) return 1;
  const double u = rng.next_double();
  return static_cast<CycleDelta>(std::floor(std::log1p(-u) / std::log1p(-rate))) + 1;
}

/// Independent Bernoulli packet source for one node.
class NodeSource {
 public:
  /// `deliver(packet, now)` hands a freshly generated packet to the NI.
  NodeSource(des::Engine& engine, const TrafficPattern& pattern, NodeId node,
             std::uint32_t packet_flits, util::Rng rng,
             std::function<void(const router::Packet&, Cycle)> deliver);

  /// Starts injecting at `rate` packets/node/cycle (0 disables).
  void start(double rate);

  /// Stops injection (in-flight schedule cancelled).
  void stop();

  /// Changes the rate from now on.
  void set_rate(double rate);

  /// From `now` on, generated packets are tagged labelled = `on` (the
  /// paper's measurement-sample marking).
  void set_labelling(bool on) { labelling_ = on; }

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 private:
  void schedule_next();
  void inject();

  des::Engine& engine_;
  const TrafficPattern& pattern_;
  NodeId node_;
  std::uint32_t packet_flits_;
  util::Rng rng_;
  std::function<void(const router::Packet&, Cycle)> deliver_;
  double rate_ = 0.0;
  bool labelling_ = false;
  des::EventHandle pending_;
  std::uint64_t generated_ = 0;
  PacketSeq next_seq_ = 1;  ///< per source: a run's ids never depend on earlier runs
};

}  // namespace erapid::traffic
