#include "des/clock.hpp"

#include <utility>

namespace erapid::des {

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
  in_tick_ = true;
  for (Clocked* c : components_) c->tick(now);
  for (Clocked* c : components_) c->post_tick(now);
  in_tick_ = false;
  open_.clear();

  bool all_quiet = true;
  for (Clocked* c : components_) {
    if (!c->quiescent()) {
      all_quiet = false;
      break;
    }
  }
  if (all_quiet) {
    running_ = false;  // sleep; wake() rearms
    return;
  }
  engine_.schedule(1, [this] { tick_once(); }, "clock.tick");
}

void ClockDomain::post(Cycle when, EventFn fn) {
  ERAPID_REQUIRE(in_tick_, "ClockDomain::post called outside a tick");
  for (const OpenBatch& b : open_) {
    if (b.when == when) {
      batches_[b.slot].push_back(std::move(fn));
      return;
    }
  }
  std::uint32_t slot = 0;
  if (free_batches_.empty()) {
    slot = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  } else {
    slot = free_batches_.back();
    free_batches_.pop_back();
  }
  engine_.schedule_at(when, [this, slot] { run_batch(slot); }, "clock.post");
  batches_[slot].push_back(std::move(fn));
  open_.push_back({when, slot});
}

void ClockDomain::run_batch(std::uint32_t slot) {
  // No post() can run here (it needs a tick), so batches_ does not move
  // under this reference.
  std::vector<EventFn>& fns = batches_[slot];
  for (EventFn& fn : fns) fn();
  fns.clear();
  free_batches_.push_back(slot);
}

}  // namespace erapid::des
