#include "traffic/generator.hpp"

namespace erapid::traffic {

NodeSource::NodeSource(des::Engine& engine, const TrafficPattern& pattern, NodeId node,
                       std::uint32_t packet_flits, util::Rng rng,
                       std::function<void(const router::Packet&, Cycle)> deliver)
    : engine_(engine),
      pattern_(pattern),
      node_(node),
      packet_flits_(packet_flits),
      rng_(rng),
      deliver_(std::move(deliver)) {}

void NodeSource::start(double rate) {
  stop();
  rate_ = rate;
  if (rate_ > 0.0) schedule_next();
}

void NodeSource::stop() {
  pending_.cancel();
  rate_ = 0.0;
}

void NodeSource::set_rate(double rate) {
  if (rate == rate_) return;
  start(rate);
}

void NodeSource::schedule_next() {
  pending_ = engine_.schedule(geometric_gap(rng_, rate_), [this] { inject(); });
}

void NodeSource::inject() {
  const Cycle now = engine_.now();
  router::Packet p;
  p.seq = next_seq_++;
  p.src = node_;
  p.dst = pattern_.destination(node_, rng_);
  p.flits = packet_flits_;
  p.created = now;
  p.labelled = labelling_;
  ++generated_;
  deliver_(p, now);
  schedule_next();
}

}  // namespace erapid::traffic
