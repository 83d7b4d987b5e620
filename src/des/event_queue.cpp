#include "des/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "util/expect.hpp"

namespace erapid::des {

const char* queue_kind_name(QueueKind kind) {
  switch (kind) {
    case QueueKind::Heap:
      return "heap";
    case QueueKind::Calendar:
      return "calendar";
  }
  ERAPID_UNREACHABLE("unmodeled QueueKind");
}

// ---- HeapEventQueue ---------------------------------------------------------

// Accepts callback-less events by design: the queue only orders (when, seq)
// pairs, and the differential tests exercise it with bare timestamps. The
// callback contract lives in Engine::schedule.
// erapid-analyze: allow(contract-coverage)
void HeapEventQueue::push(Event&& e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

const Event* HeapEventQueue::peek() { return heap_.empty() ? nullptr : &heap_.front(); }

Event HeapEventQueue::pop() {
  ERAPID_INVARIANT(!heap_.empty(), "pop on an empty heap calendar");
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

// ---- CalendarEventQueue -----------------------------------------------------

void CalendarEventQueue::push(Event&& e) {
  // The engine guards when >= now and wheel_time_ never passes the pending
  // minimum, so the offset cannot be negative.
  ERAPID_INVARIANT(e.when >= wheel_time_, "calendar push below the wheel window: when="
                                              << e.when << " base=" << wheel_time_);
  if (e.when - wheel_time_ < kBuckets) {
    const auto idx = static_cast<std::size_t>(e.when % kBuckets);
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      ERAPID_INVARIANT(nodes_.size() < kNil, "calendar node pool exhausted");
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].ev = e;
    nodes_[n].next = kNil;
    Bucket& b = wheel_[idx];
    if (b.tail == kNil) {
      b.head = n;
      occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    } else {
      nodes_[b.tail].next = n;
    }
    b.tail = n;
    if (wheel_count_ == 0) {
      min_valid_ = true;
      min_when_ = e.when;
      min_bucket_ = idx;
    } else if (min_valid_ && e.when < min_when_) {
      min_when_ = e.when;
      min_bucket_ = idx;
    }
    ++wheel_count_;
  } else {
    ladder_.push_back(std::move(e));
    std::push_heap(ladder_.begin(), ladder_.end(), EventLater{});
  }
  ++size_;
}

void CalendarEventQueue::find_wheel_min() {
  // Scan the bitmap from the base's word upward, wrapping once. The base
  // word is read twice: first without the buckets below the base (those
  // hold next-lap times), then whole on the wrap, when only those are left.
  const auto start = static_cast<std::size_t>(wheel_time_ % kBuckets);
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      min_bucket_ = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      min_when_ = nodes_[wheel_[min_bucket_].head].ev.when;
      min_valid_ = true;
      return;
    }
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  ERAPID_UNREACHABLE("wheel count positive but no occupied bucket");
}

const Event* CalendarEventQueue::peek() {
  const Event* wheel_min = nullptr;
  if (wheel_count_ > 0) {
    if (!min_valid_) find_wheel_min();
    const Bucket& b = wheel_[min_bucket_];
    ERAPID_INVARIANT(b.head != kNil, "calendar min cache points at an empty bucket");
    wheel_min = &nodes_[b.head].ev;
  }
  const Event* ladder_min = ladder_.empty() ? nullptr : &ladder_.front();
  if (wheel_min == nullptr) return ladder_min;
  if (ladder_min == nullptr) return wheel_min;
  return EventLater{}(*wheel_min, *ladder_min) ? ladder_min : wheel_min;
}

Event CalendarEventQueue::pop() {
  ERAPID_INVARIANT(size_ > 0, "pop on an empty calendar");
  bool use_wheel = wheel_count_ > 0;
  if (use_wheel) {
    if (!min_valid_) find_wheel_min();
    if (!ladder_.empty() &&
        EventLater{}(nodes_[wheel_[min_bucket_].head].ev, ladder_.front())) {
      use_wheel = false;
    }
  }
  Event out;
  if (use_wheel) {
    Bucket& b = wheel_[min_bucket_];
    const std::uint32_t n = b.head;
    out = nodes_[n].ev;
    b.head = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    --wheel_count_;
    if (b.head == kNil) {
      b.tail = kNil;
      occupied_[min_bucket_ / 64] &= ~(std::uint64_t{1} << (min_bucket_ % 64));
      min_valid_ = false;
    }
    // A still-live minimum bucket keeps the cache: every remaining entry
    // shares the popped entry's cycle value.
  } else {
    std::pop_heap(ladder_.begin(), ladder_.end(), EventLater{});
    out = std::move(ladder_.back());
    ladder_.pop_back();
  }
  --size_;
  // The popped entry is the global minimum, so no pending event sits below
  // it: advancing the window base here is what keeps pushes in-window.
  wheel_time_ = out.when;
  return out;
}

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::Heap:
      return std::make_unique<HeapEventQueue>();
    case QueueKind::Calendar:
      return std::make_unique<CalendarEventQueue>();
  }
  ERAPID_UNREACHABLE("unmodeled QueueKind");
}

}  // namespace erapid::des
