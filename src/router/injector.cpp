#include "router/injector.hpp"

#include <algorithm>

namespace erapid::router {

FlitInjector::FlitInjector(des::Engine& /*engine*/, Router& router, std::uint32_t in_port,
                           std::uint32_t vcs, std::uint32_t credits_per_vc,
                           std::uint32_t cycles_per_flit)
    : router_(router),
      in_port_(in_port),
      cycles_per_flit_(cycles_per_flit),
      credits_(vcs, credits_per_vc),
      vc_pick_(vcs) {
  ERAPID_EXPECT(cycles_per_flit >= 1, "channel must take >= 1 cycle per flit");
  router_.set_credit_return(in_port_,
                            [this](std::uint32_t vc, Cycle now) { on_credit(vc, now); });
}

bool FlitInjector::try_start(const Packet& p, Cycle now) {
  if (in_flight_) return false;
  // Pick a VC with at least one credit, round-robin for fairness. When
  // every VC is out of credits we still commit to one and stall: the
  // credit-return callback resumes the stream, so the caller never needs
  // its own retry timer.
  vc_scan_.clear();
  for (std::uint32_t v = 0; v < credits_.size(); ++v) {
    if (credits_[v] > 0) vc_scan_.push_back(v);
  }
  if (vc_scan_.empty()) {
    for (std::uint32_t v = 0; v < credits_.size(); ++v) vc_scan_.push_back(v);
  }
  vc_ = vc_pick_.grant(vc_scan_);

  in_flight_ = true;
  current_ = p;
  current_.injected = now;
  next_flit_ = 0;
  stalled_ = false;
  // First flit needs one channel traversal.
  if (!send_scheduled_) schedule_send(now + cycles_per_flit_);
  return true;
}

void FlitInjector::schedule_send(Cycle when) {
  send_scheduled_ = true;
  router_.domain().post(when, [this, when] { send_next(when); });
}

void FlitInjector::send_next(Cycle now) {
  send_scheduled_ = false;
  if (!in_flight_) return;
  if (credits_[vc_] == 0) {
    stalled_ = true;  // resume from on_credit
    return;
  }
  Flit f = make_flit(current_, next_flit_);
  f.injected = current_.injected;
  --credits_[vc_];
  router_.accept_flit(in_port_, vc_, f, now);
  ++next_flit_;

  if (next_flit_ == current_.flits) {
    in_flight_ = false;
    ++packets_sent_;
    if (on_idle_) on_idle_(now);
    return;
  }
  schedule_send(now + cycles_per_flit_);
}

void FlitInjector::on_credit(std::uint32_t vc, Cycle now) {
  ++credits_[vc];
  if (stalled_ && vc == vc_ && in_flight_ && !send_scheduled_) {
    stalled_ = false;
    schedule_send(now + 1);  // credit processing takes a cycle
  }
}

EjectionUnit::EjectionUnit(Router& router, std::uint32_t vcs,
                           std::function<void(const Packet&, Cycle)> on_packet)
    : router_(router), expected_index_(vcs, 0), on_packet_(std::move(on_packet)) {}

void EjectionUnit::receive_flit(const Flit& f, std::uint32_t vc, Cycle now) {
  ERAPID_EXPECT(vc < expected_index_.size(), "ejection VC out of range");
  ERAPID_EXPECT(f.index == expected_index_[vc],
                "flit arrived out of order within a VC (wormhole violated)");
  expected_index_[vc] = f.tail ? 0 : f.index + 1;
  // The node drains unconditionally: credit goes straight back.
  router_.return_credit(out_port_, vc);
  if (f.tail) {
    ++packets_;
    if (on_packet_) on_packet_(packet_from_flit(f), now);
  }
}

}  // namespace erapid::router
