#include "des/clock.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace erapid::des {

ClockDomain::ClockDomain(Engine& engine, std::uint32_t max_delay)
    : engine_(engine),
      ring_(std::bit_ceil(std::size_t{max_delay} + 1)),
      mask_(ring_.size() - 1) {}

void ClockDomain::wake() {
  if (running_) return;
  ERAPID_EXPECT(!components_.empty(), "waking a clock domain with no clocked components");
  running_ = true;
  // Tick at the next cycle boundary: if wake() is called mid-cycle (from an
  // event at time t), the first tick runs at t+1 so the waking signal is
  // visible with the usual one-cycle latency.
  engine_.schedule(1, [this] { tick_once(); }, "clock.tick");
}

void ClockDomain::tick_once() {
  const Cycle now = engine_.now();
  ++ticks_;
  // A callback may post, but never into this slot (now < when <= now +
  // mask_), so the list neither grows nor moves while it runs.
  std::vector<EventFn>& due = ring_[now & mask_];
  for (EventFn& fn : due) fn();
  pending_ -= due.size();
  due.clear();
  for (Clocked* c : components_) c->tick(now);
  for (Clocked* c : components_) c->post_tick(now);

  if (pending_ == 0 && std::all_of(components_.begin(), components_.end(),
                                   [](const Clocked* c) { return c->quiescent(); })) {
    running_ = false;  // sleep; wake() rearms
    return;
  }
  engine_.schedule(1, [this] { tick_once(); }, "clock.tick");
}

void ClockDomain::post(Cycle when, EventFn fn) {
  const Cycle now = engine_.now();
  ERAPID_REQUIRE(when > now && when - now <= mask_,
                 "ClockDomain::post for cycle " << when << " at cycle " << now
                                                << " is not 1.." << mask_ << " cycles ahead");
  ring_[when & mask_].push_back(std::move(fn));
  ++pending_;
  wake();
}

}  // namespace erapid::des
