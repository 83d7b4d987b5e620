// Discrete-event simulation kernel.
//
// This is the substrate the paper gets from YACSIM/NETSIM (Rice University,
// unreleased): a deterministic calendar of timestamped events. Design goals:
//
//  * Determinism. Events at equal timestamps fire in scheduling (FIFO)
//    order: the calendar orders by (time, sequence). Two runs with the same
//    seed produce byte-identical statistics. The engine takes its calendar
//    implementation by QueueKind (see event_queue.hpp): every Simulation
//    runs on the default calendar wheel; the binary heap stays as the
//    reference ordering the wheel is tested against and as the baseline of
//    the DES hold probe.
//  * Cancellation. schedule() returns an EventHandle that can cancel the
//    event in O(1) (lazy deletion: the calendar entry stays but is
//    skipped). Each pending event owns an EventSlot that holds its closure
//    and its cancellation state; the calendar entry carries only the key
//    and the slot pointer. Slots live in an engine-owned std::deque and are
//    recycled through a free list under generation tags, so scheduling
//    performs no per-event heap allocation once the pool has grown to the
//    peak pending count. Handles must not outlive their Engine.
//  * Cycle-driven components. Routers are clocked pipelines; ClockDomain
//    (clock.hpp) multiplexes all per-cycle work onto a single recurring
//    event so the calendar holds O(#messages) entries, not O(#routers) per
//    cycle, and ClockDomain::post runs flit and credit hand-offs inside
//    their arrival cycle's tick, with no calendar event of their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "des/event_queue.hpp"
#include "util/expect.hpp"
#include "util/inplace_fn.hpp"
#include "util/types.hpp"

namespace erapid::des {

/// Callback type executed when an event fires, and the element type of
/// ClockDomain::post's per-cycle hand-off ring. Inline storage is sized for
/// the largest hot-path capture (the router's flit delivery: sink + flit +
/// vc + cycle), so neither scheduling nor posting heap-allocates for it.
using EventFn = util::InplaceFn<96>;

/// A pending event's closure and cancellation state, owned by the engine
/// and recycled under a generation tag: a slot is released (closure moved
/// out or destroyed, generation bumped, pushed on the free list) when its
/// event leaves the calendar, so a stale EventHandle sees the generation
/// mismatch instead of a dangling flag.
struct EventSlot {
  EventFn fn;
  std::uint64_t gen = 0;
  bool alive = false;
  EventSlot* next_free = nullptr;
};

/// Cancellation token for a scheduled event. Points at a generation-tagged
/// slot owned by the engine: once the event fires (or its cancelled entry
/// is skimmed) the slot's generation moves on and the handle goes inert.
/// Handles must not outlive the Engine that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent by design —
  /// cancelling an inert or never-armed handle is a deliberate no-op.
  // erapid-analyze: allow(contract-coverage)
  void cancel() {
    if (slot_ != nullptr && slot_->gen == gen_) slot_->alive = false;
  }

  /// True if the event is still pending (scheduled, not fired, not cancelled).
  [[nodiscard]] bool pending() const {
    return slot_ != nullptr && slot_->gen == gen_ && slot_->alive;
  }

 private:
  friend class Engine;
  EventHandle(EventSlot* slot, std::uint64_t gen) : slot_(slot), gen_(gen) {}
  EventSlot* slot_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// The event calendar and simulation clock.
class Engine {
 public:
  /// Observer of every dispatched event — the observability layer installs
  /// one for self-profiling (spans per event tag, queue-depth tracks).
  /// Kept as a local interface so des/ stays free of higher-layer
  /// dependencies; unset (the default) costs one branch per event.
  struct DispatchHook {
    virtual ~DispatchHook() = default;
    /// Fires immediately before an event's callback runs. `tag` is the
    /// static label given at schedule time, or nullptr for untagged events.
    virtual void on_dispatch_begin(const char* tag, Cycle now) = 0;
    /// Fires after the callback returns, with post-dispatch calendar state.
    virtual void on_dispatch_end(const char* tag, Cycle now, std::size_t queue_size,
                                 std::uint64_t executed) = 0;
  };

  explicit Engine(QueueKind kind = QueueKind::Calendar) : queue_(make_event_queue(kind)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time in cycles.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now. delay == 0 runs later
  /// in the current cycle (after all earlier-scheduled same-time events).
  /// `tag` must point at storage outliving the event (string literals).
  EventHandle schedule(CycleDelta delay, EventFn fn, const char* tag = nullptr) {
    ERAPID_REQUIRE(delay <= kNeverCycle - now_,
                   "event delay overflows the cycle counter: delay=" << delay);
    return schedule_at(now_ + delay, std::move(fn), tag);
  }

  /// Schedules `fn` at absolute time `when` (must be >= now()).
  EventHandle schedule_at(Cycle when, EventFn fn, const char* tag = nullptr);

  /// Installs (or clears, with nullptr) the dispatch observer.
  void set_dispatch_hook(DispatchHook* hook) { hook_ = hook; }

  /// Runs events until the queue is empty or `limit` time is passed.
  /// Returns the number of events executed.
  std::uint64_t run_until(Cycle limit);

  /// Runs all events to exhaustion (use run_until for open models).
  std::uint64_t run_all() { return run_until(kNeverCycle); }

  /// Executes exactly one event if any is pending before `limit`.
  /// Returns false when no such event exists (time is advanced to limit).
  bool step(Cycle limit = kNeverCycle);

  /// Number of events currently in the calendar (including cancelled
  /// entries awaiting lazy removal).
  [[nodiscard]] std::size_t queue_size() const { return queue_->size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Time of the earliest pending event, or kNeverCycle when idle.
  [[nodiscard]] Cycle next_event_time() const;

 private:
  /// Pops cancelled entries off the head of the calendar.
  void skim();

  EventSlot* acquire_slot();
  void release_slot(EventSlot* slot);

  std::unique_ptr<EventQueue> queue_;
  std::deque<EventSlot> slots_;  ///< stable addresses; destroys pending closures
  EventSlot* free_slots_ = nullptr;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  DispatchHook* hook_ = nullptr;
};

}  // namespace erapid::des
