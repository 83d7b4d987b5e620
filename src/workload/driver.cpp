#include "workload/driver.hpp"

#include <utility>

#include "util/expect.hpp"

namespace erapid::workload {

BernoulliDriver::BernoulliDriver(des::Engine& engine, traffic::TrafficPattern pattern,
                                 std::uint32_t packet_flits, double rate,
                                 util::Rng master, const InjectFn& inject)
    : pattern_(pattern), rate_(rate) {
  const std::uint32_t nodes = pattern_.num_nodes();
  sources_.reserve(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    sources_.push_back(std::make_unique<traffic::NodeSource>(
        engine, pattern_, NodeId{n}, packet_flits, master.fork(), inject));
  }
}

void BernoulliDriver::start() {
  ERAPID_REQUIRE(!started_, "BernoulliDriver started twice");
  started_ = true;
  for (auto& s : sources_) s->start(rate_);
}

void BernoulliDriver::stop() {
  ERAPID_REQUIRE(started_, "BernoulliDriver stopped before start");
  for (auto& s : sources_) s->stop();
}

void BernoulliDriver::set_labelling(bool on) {
  ERAPID_REQUIRE(started_, "BernoulliDriver labelling set before start");
  for (auto& s : sources_) s->set_labelling(on);
}

std::uint64_t BernoulliDriver::generated() const {
  std::uint64_t total = 0;
  for (const auto& s : sources_) total += s->generated();
  return total;
}

TraceDriver::TraceDriver(des::Engine& engine, traffic::Trace trace,
                         std::uint32_t packet_flits, std::uint32_t flit_bytes,
                         InjectFn inject)
    : engine_(engine),
      trace_(std::move(trace)),
      packet_flits_(packet_flits),
      flit_bytes_(flit_bytes),
      inject_(std::move(inject)) {
  ERAPID_REQUIRE(packet_flits_ >= 1 && flit_bytes_ >= 1,
                 "packet geometry must be non-degenerate");
  ERAPID_REQUIRE(static_cast<bool>(inject_), "trace driver needs an inject callback");
  stats_.kind = "trace";
}

void TraceDriver::start() {
  ERAPID_REQUIRE(!started_, "TraceDriver started twice");
  started_ = true;
  const Cycle base = engine_.now();
  for (const traffic::TraceEvent e : trace_.events()) {
    engine_.schedule_at(base + e.cycle, [this, e] { inject(e); });
  }
}

void TraceDriver::inject(const traffic::TraceEvent& e) {
  const Cycle now = engine_.now();
  router::Packet p;
  p.seq = next_seq_++;
  p.src = e.src;
  p.dst = e.dst;
  p.flits = packet_flits_;
  p.created = now;
  p.labelled = true;
  ++stats_.packets_injected;
  inject_(p, now);
}

void TraceDriver::on_delivered(const router::Packet& p, Cycle now) {
  ERAPID_REQUIRE(unresolved() > 0, "delivery of a packet the trace never injected at cycle "
                                        << now);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += static_cast<std::uint64_t>(p.flits) * flit_bytes_;
  resolve_one(now);
}

void TraceDriver::on_dead_letter(const router::Packet&, Cycle now) {
  ERAPID_REQUIRE(unresolved() > 0,
                 "dead letter of a packet the trace never injected at cycle " << now);
  ++stats_.packets_dead;
  resolve_one(now);
}

void TraceDriver::resolve_one(Cycle now) {
  if (stats_.packets_injected == trace_.size() && unresolved() == 0) {
    stats_.completed = true;
    stats_.completion_cycle = now;
  }
}

}  // namespace erapid::workload
