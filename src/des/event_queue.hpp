// Pluggable event calendars for the DES engine.
//
// The engine promises one ordering contract, whatever the container: events
// pop in (time, insertion sequence) order — FIFO among equal timestamps.
// Two implementations honour it:
//
//  * CalendarEventQueue — a timing wheel of 1-cycle buckets with a min-heap
//    "ladder" for events beyond the window. The Engine default, and the queue
//    every Simulation runs on. Near-future events (the vast majority in a
//    cycle-driven model: clock ticks at +1, pipeline hops a few cycles out)
//    cost O(1) push/pop; far-future events (drain timeouts, laser repairs)
//    spill to the ladder and are merged at the head by the same (time, seq)
//    comparison. Wheel entries live in one pooled node array threaded by a free
//    list, and a bucket is just a head/tail pair of node indices, so memory is
//    O(peak pending events), not O(buckets × per-bucket high water). A 64-word
//    occupancy bitmap finds the next live bucket with countr_zero, at most 65
//    word reads however sparse the wheel is.
//
//  * HeapEventQueue — the classic binary heap. O(log n) push/pop. No
//    config selects it: it is kept as the reference ordering the calendar
//    is tested against (the engine-level differential suites), and for
//    the DES hold probe that times both.
//
// The calendar's correctness hinges on two invariants, both guaranteed by
// the engine: pushes never carry `when` below the current time, and the
// wheel's window base only advances to a popped event's time (the global
// minimum), so no pending wheel event is ever left behind the window.
// Within a live bucket every entry shares one cycle value (the window is
// exactly one lap wide), so append order is seq order and FIFO falls out
// of popping the chain from its head. tests/test_event_queue.cpp holds
// the two implementations against each other on randomized streams.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace erapid::des {

/// Which event calendar an Engine runs on. Simulations always take the
/// calendar; only the hold probe and the engine-level tests pick the heap.
enum class QueueKind { Heap, Calendar };

/// Name of a queue kind ("heap" / "calendar"), for probe output and test
/// names.
[[nodiscard]] const char* queue_kind_name(QueueKind kind);

/// The engine-owned slot that holds a pending event's closure and its
/// cancellation state (defined in engine.hpp; the queues never touch it).
struct EventSlot;

/// One calendar entry: the ordering key plus a pointer to the slot that
/// holds the closure. 32 bytes and trivially copyable, so a heap sift or a
/// bucket append moves four words and calls nothing.
struct Event {
  Cycle when = 0;
  std::uint64_t seq = 0;
  EventSlot* slot = nullptr;
  const char* tag = nullptr;  ///< static schedule-site label (observability)
};
static_assert(sizeof(Event) == 32 && std::is_trivially_copyable_v<Event>);

/// Orders a after b by (when, seq) — the heap comparator and the
/// wheel-vs-ladder merge rule. Same-time events keep FIFO order.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

/// The calendar contract. size() counts every entry still in the
/// container, including cancelled ones awaiting lazy removal — the
/// dispatch hook reports it, so both implementations must agree.
class EventQueue {
 public:
  virtual ~EventQueue() = default;
  virtual void push(Event&& e) = 0;
  /// Earliest entry by (when, seq), or nullptr when empty. The pointer is
  /// invalidated by the next push/pop.
  virtual const Event* peek() = 0;
  /// Removes and returns the earliest entry. Precondition: not empty.
  virtual Event pop() = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
};

/// Binary min-heap calendar (the reference ordering).
class HeapEventQueue final : public EventQueue {
 public:
  void push(Event&& e) override;
  const Event* peek() override;
  Event pop() override;
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }

 private:
  std::vector<Event> heap_;
};

/// Timing-wheel calendar with a min-heap ladder for far-future events
/// (the default).
class CalendarEventQueue final : public EventQueue {
 public:
  /// Window width in cycles (= bucket count; each bucket is 1 cycle wide).
  static constexpr std::size_t kBuckets = 4096;

  void push(Event&& e) override;
  const Event* peek() override;
  Event pop() override;
  [[nodiscard]] std::size_t size() const override { return size_; }

  /// Wheel nodes ever allocated: the peak count of wheel entries pending
  /// at once, since popped nodes are reused before the pool grows.
  [[nodiscard]] std::size_t pooled_nodes() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert(kBuckets % 64 == 0, "the occupancy bitmap needs whole words");

  /// A wheel entry and the index of the next one in its bucket's chain
  /// (or in the free list once popped).
  struct Node {
    Event ev;
    std::uint32_t next = kNil;
  };

  /// A FIFO chain of nodes; both ends are kNil when the bucket is empty.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Repopulates the cached wheel minimum: the first occupied bucket at or
  /// after the window base, wrapping once. That bucket holds the smallest
  /// time (one lap, one cycle value per bucket). Precondition: the wheel
  /// is non-empty.
  void find_wheel_min();

  std::vector<Node> nodes_;          ///< node pool; grows to the peak wheel count
  std::uint32_t free_ = kNil;        ///< head of the free-node list
  std::array<Bucket, kBuckets> wheel_{};
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit b: bucket b is non-empty
  std::vector<Event> ladder_;  ///< min-heap (EventLater) of beyond-window events
  Cycle wheel_time_ = 0;       ///< window base; advances only to popped times
  std::size_t size_ = 0;
  std::size_t wheel_count_ = 0;
  bool min_valid_ = false;    ///< cached wheel minimum is current
  Cycle min_when_ = 0;        ///< time of the cached minimum
  std::size_t min_bucket_ = 0;
};

/// Builds the calendar selected by `kind`.
[[nodiscard]] std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace erapid::des
