// Clock domain for cycle-driven components.
//
// Routers, serializers and controllers are synchronous pipelines clocked at
// the 400 MHz router clock. Instead of scheduling one heap event per
// component per cycle, a ClockDomain keeps a single recurring event and
// fans out to registered Clocked components in two phases:
//
//   phase 1: tick()      — every component computes using *last* cycle's
//                          externally visible state and stages its outputs;
//   phase 2: post_tick() — every component commits staged state.
//
// The two-phase protocol removes intra-cycle ordering sensitivity between
// components (a component never observes a peer's same-cycle update), which
// keeps the simulation deterministic regardless of registration order for
// all cross-component signals. (Signals that genuinely take time —
// credits, channel flits — are handed off with post(), which delivers them
// through Engine events at their arrival cycle.)
//
// post() coalesces: every hand-off one tick makes for the same arrival
// cycle shares one calendar event, which runs the callbacks back to back in
// call order. Components schedule nothing else during a tick, and the next
// tick is scheduled only after all of them have ticked, so one tick's
// hand-offs for a cycle are a contiguous run in the calendar's (time, seq)
// order; one event in the place of that run's first entry executes the same
// callbacks in the same order (DESIGN.md §11).
//
// The domain goes idle automatically: when every component reports
// quiescence (nothing buffered, nothing in flight) the recurring event is
// not rescheduled, and any component can wake the domain again. This keeps
// the event count proportional to useful work at low loads.
//
// While any component is busy, every component is ticked, so an idle
// component's tick() and quiescent() must be cheap: a router with no
// non-Idle VC returns from tick() after one branch and answers
// quiescent() from a counter, without touching its buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "des/engine.hpp"

namespace erapid::des {

/// Interface for components advanced by a ClockDomain.
class Clocked {
 public:
  virtual ~Clocked() = default;

  /// Phase 1: compute with last-cycle state; stage outputs.
  virtual void tick(Cycle now) = 0;

  /// Phase 2: commit staged outputs. Default: nothing staged.
  virtual void post_tick(Cycle /*now*/) {}

  /// True when the component has no pending work; the domain may sleep
  /// only when *all* components are quiescent.
  [[nodiscard]] virtual bool quiescent() const { return false; }
};

/// Drives a set of Clocked components, one tick per cycle, sleeping when
/// the whole domain is quiescent.
class ClockDomain {
 public:
  explicit ClockDomain(Engine& engine) : engine_(engine) {}

  /// Registers a component. Registration order is the (deterministic)
  /// intra-phase iteration order.
  void add(Clocked& c) { components_.push_back(&c); }

  /// Ensures the domain is ticking from the next cycle boundary onwards.
  /// Safe to call at any time, including from within a tick.
  void wake();

  /// True if the recurring tick event is scheduled.
  [[nodiscard]] bool running() const { return running_; }

  /// Cycles actually ticked (excludes slept cycles); for diagnostics.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Runs `fn` at cycle `when` (>= now). Callable only from inside a tick
  /// (either phase). All posts of one tick for the same `when` share one
  /// calendar event, tagged "clock.post", that sits where the first post's
  /// own event would have been and runs the callbacks in call order.
  void post(Cycle when, EventFn fn);

 private:
  /// A batch the current tick has scheduled and may still append to.
  struct OpenBatch {
    Cycle when = 0;
    std::uint32_t slot = 0;  ///< index into batches_
  };

  void tick_once();
  void run_batch(std::uint32_t slot);

  Engine& engine_;
  std::vector<Clocked*> components_;
  bool running_ = false;
  bool in_tick_ = false;
  std::uint64_t ticks_ = 0;
  std::vector<std::vector<EventFn>> batches_;  ///< pooled callback lists
  std::vector<std::uint32_t> free_batches_;    ///< batches_ slots not in flight
  std::vector<OpenBatch> open_;                ///< cleared when a tick ends
};

}  // namespace erapid::des
