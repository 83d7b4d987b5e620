#include "optical/receiver.hpp"

#include "obs/probe.hpp"

namespace erapid::optical {

Receiver::Receiver(des::Engine& engine, router::Router& router, std::uint32_t in_port,
                   std::uint32_t vcs, std::uint32_t credits_per_vc,
                   std::uint32_t cycles_per_flit, std::uint32_t queue_capacity,
                   obs::Hub* hub)
    : capacity_(queue_capacity),
      injector_(engine, router, in_port, vcs, credits_per_vc, cycles_per_flit),
      hub_(hub) {
  ERAPID_EXPECT(queue_capacity >= 1, "receiver queue needs >= 1 slot");
  if (hub_ != nullptr) {
    m_rx_ = hub_->metrics().counter("optical.rx_packets");
  }
  injector_.set_idle_callback([this](Cycle now) {
    // The packet previously streaming has fully entered the router: its
    // slot is free and the next queued packet can start.
    ERAPID_INVARIANT(reserved_ > 0, "receiver freed a slot it never reserved");
    --reserved_;
    pump(now);
    if (on_slot_freed_) on_slot_freed_(now);
  });
}

bool Receiver::reserve_slot() {
  if (reserved_ >= capacity_) return false;
  ++reserved_;
  ERAPID_INVARIANT(reserved_ <= capacity_, "receiver over-reserved: " << reserved_ << "/"
                                                                      << capacity_);
  return true;
}

void Receiver::abort_reservation() {
  ERAPID_REQUIRE(reserved_ > 0, "aborting a reservation that was never made");
  --reserved_;
}

void Receiver::set_bit_error(double pkt_corrupt_prob, Cycle until, std::uint64_t seed) {
  ERAPID_REQUIRE(pkt_corrupt_prob > 0.0 && pkt_corrupt_prob <= 1.0,
                 "packet corruption probability must be in (0, 1]");
  pkt_corrupt_prob_ = pkt_corrupt_prob;
  ber_until_ = until;
  ber_rng_ = util::Rng(seed);
}

void Receiver::deliver(const router::Packet& p, Cycle now) {
  ERAPID_REQUIRE(reserved_ > 0, "optical packet arrived without a reserved RX slot");
  if (pkt_corrupt_prob_ > 0.0 && now < ber_until_ &&
      ber_rng_.next_bernoulli(pkt_corrupt_prob_)) {
    // CRC failure: the payload is garbage. Drop it, free the slot, and let
    // the link-level ARQ path (via the CRC-drop callback) retransmit. The
    // slot-freed announcement still fires so a transmission blocked on this
    // receiver can proceed.
    ++crc_dropped_;
    --reserved_;
    if (on_crc_drop_) on_crc_drop_(p, now);
    if (on_slot_freed_) on_slot_freed_(now);
    return;
  }
  ERAPID_INVARIANT(queue_.size() < capacity_, "RX queue overflow despite reservation");
  ++received_;
  ERAPID_COUNTER(hub_, m_rx_, 1);
  queue_.push_back(p);
  pump(now);
}

void Receiver::pump(Cycle now) {
  if (queue_.empty() || injector_.busy()) return;
  const bool started = injector_.try_start(queue_.front(), now);
  ERAPID_EXPECT(started, "idle injector refused a packet");
  queue_.pop_front();
}

}  // namespace erapid::optical
