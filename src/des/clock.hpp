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
// credits, channel flits, an injector's next flit — are handed off with
// post(), which runs them at their arrival cycle.)
//
// post() adds no calendar event: it appends to a ring of per-cycle
// callback lists indexed by the arrival cycle, and each tick first runs
// every callback due at its cycle, in call order, then ticks the
// components. The ring spans max_delay() cycles ahead, so a hand-off may
// reach at most that far (DESIGN.md §11).
//
// The domain goes idle automatically: when no hand-off is pending and every
// component reports quiescence (nothing buffered, nothing in flight) the
// recurring event is not rescheduled, and a post() or any component can
// wake the domain again. This keeps the event count proportional to useful
// work at low loads.
//
// While any component is busy, every component is ticked, so an idle
// component's tick() and quiescent() must be cheap: a router with no
// non-Idle VC returns from tick() after one branch and answers
// quiescent() from a counter, without touching its buffers.
#pragma once

#include <cstddef>
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
  /// `max_delay` is the furthest ahead (in cycles) any post() will reach;
  /// the ring gets the next power of two above it.
  explicit ClockDomain(Engine& engine, std::uint32_t max_delay = 7);

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

  /// Largest `when - now` post() accepts (at least the ctor's max_delay).
  [[nodiscard]] std::uint32_t max_delay() const { return static_cast<std::uint32_t>(mask_); }

  /// Runs `fn` at the start of the tick at cycle `when`, after every
  /// earlier post for that cycle, and wakes the domain if it sleeps.
  /// Requires now < when <= now + max_delay(); callable inside a tick or
  /// from any event.
  void post(Cycle when, EventFn fn);

 private:
  void tick_once();

  Engine& engine_;
  std::vector<Clocked*> components_;
  std::vector<std::vector<EventFn>> ring_;  ///< [cycle & mask_]: that cycle's hand-offs
  Cycle mask_;
  std::size_t pending_ = 0;  ///< hand-offs in the ring
  bool running_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace erapid::des
