#include "des/engine.hpp"

namespace erapid::des {

EventSlot* Engine::acquire_slot() {
  EventSlot* s = free_slots_;
  if (s != nullptr) {
    free_slots_ = s->next_free;
  } else {
    s = &slots_.emplace_back();
  }
  s->alive = true;
  return s;
}

void Engine::release_slot(EventSlot* slot) {
  // The closure has already left the slot (moved out to run, or destroyed
  // by skim). Bumping the generation is what retires outstanding handles:
  // they keep the old generation and read as not-pending from here on,
  // even after the slot is reissued to a new event.
  slot->alive = false;
  ++slot->gen;
  slot->next_free = free_slots_;
  free_slots_ = slot;
}

EventHandle Engine::schedule_at(Cycle when, EventFn fn, const char* tag) {
  ERAPID_REQUIRE(when >= now_,
                 "cannot schedule an event in the past: when=" << when << " now=" << now_);
  EventSlot* slot = acquire_slot();
  slot->fn = std::move(fn);
  const std::uint64_t gen = slot->gen;
  queue_->push(Event{when, seq_++, slot, tag});
  return EventHandle(slot, gen);
}

void Engine::skim() {
  const Event* top = nullptr;
  while ((top = queue_->peek()) != nullptr && !top->slot->alive) {
    EventSlot* slot = queue_->pop().slot;
    slot->fn = nullptr;  // a cancelled event's captures go with its entry
    release_slot(slot);
  }
}

Cycle Engine::next_event_time() const {
  // const view: cancelled entries at the head still carry valid times of
  // *some* pending work at-or-after them only if a live entry exists; scan
  // a copy-free way by checking liveness lazily.
  auto* self = const_cast<Engine*>(this);
  self->skim();
  const Event* top = self->queue_->peek();
  return top == nullptr ? kNeverCycle : top->when;
}

bool Engine::step(Cycle limit) {
  skim();
  const Event* top = queue_->peek();
  if (top == nullptr || top->when > limit) {
    if (limit != kNeverCycle && limit > now_) now_ = limit;
    return false;
  }
  const Event e = queue_->pop();
  // Monotone event time: the calendar never hands back an event before the
  // current cycle (schedule_at guards the insert side; this pins the pop
  // side against calendar-ordering regressions).
  ERAPID_INVARIANT(e.when >= now_,
                   "event calendar time ran backwards: when=" << e.when << " now=" << now_);
  now_ = e.when;
  // Move the closure out before releasing the slot: the callback may
  // schedule, and that schedule may reissue this very slot. Its handle
  // already reads not-pending inside the callback.
  EventFn fn = std::move(e.slot->fn);
  release_slot(e.slot);
  ++executed_;
  if (hook_ == nullptr) {
    fn();
  } else {
    hook_->on_dispatch_begin(e.tag, now_);
    fn();
    hook_->on_dispatch_end(e.tag, now_, queue_->size(), executed_);
  }
  return true;
}

std::uint64_t Engine::run_until(Cycle limit) {
  ERAPID_EXPECT(limit >= now_,
                "run_until(" << limit << ") would rewind the clock past now=" << now_);
  std::uint64_t n = 0;
  while (step(limit)) ++n;
  return n;
}

}  // namespace erapid::des
