// Host-time measurement for the benchmark: thread-CPU and wall clocks,
// and the per-tag dispatch profiler installed on a Simulation's engine.
//
// Whole-call timings (run(), the Simulation ctor, the probes) use
// CLOCK_THREAD_CPUTIME_ID, so that time the shared host spends running
// other processes does not count. Per-event spans cannot: that clock is a
// system call (about 285 ns on a 4-vCPU Xeon VM) and the median event
// costs less, so the profiler times events on the vDSO monotonic clock
// (about 30 ns) and reports them as shares of the traced run()'s time on
// the same clock.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "des/engine.hpp"

namespace perfbench {

/// CPU time consumed by the calling thread, in nanoseconds.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Monotonic wall time, in nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dispatch hook that charges each event's monotonic-clock time to its
/// schedule tag and samples the calendar depth after every event. It forwards every
/// callback to `next` (the Simulation's obs hub, or nullptr), so obs
/// self-profiling sees exactly the stream it would see without the
/// profiler and the simulated statistics stay byte-identical.
class TagProfiler final : public erapid::des::Engine::DispatchHook {
 public:
  struct Bucket {
    std::string tag;  ///< schedule-site label; "" for untagged events
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  explicit TagProfiler(erapid::des::Engine::DispatchHook* next) : next_(next) {}

  void on_dispatch_begin(const char* tag, erapid::Cycle now) override {
    if (next_ != nullptr) next_->on_dispatch_begin(tag, now);
    begin_ns_ = wall_ns();
  }

  void on_dispatch_end(const char* tag, erapid::Cycle now, std::size_t queue_size,
                       std::uint64_t executed) override {
    const std::int64_t spent = wall_ns() - begin_ns_;
    Slot& s = slot(tag);
    ++s.calls;
    s.ns += spent;
    ++events_;
    depth_sum_ += queue_size;
    if (queue_size > depth_max_) depth_max_ = queue_size;
    if (next_ != nullptr) next_->on_dispatch_end(tag, now, queue_size, executed);
  }

  /// Per-tag totals, merged by label text (a label may be spelled at more
  /// than one schedule site).
  [[nodiscard]] std::vector<Bucket> buckets() const {
    std::vector<Bucket> out;
    for (const Slot& s : slots_) {
      const std::string name = s.tag != nullptr ? s.tag : "";
      Bucket* b = nullptr;
      for (Bucket& o : out) {
        if (o.tag == name) b = &o;
      }
      if (b == nullptr) b = &out.emplace_back(Bucket{name, 0, 0});
      b->calls += s.calls;
      b->ns += s.ns;
    }
    return out;
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t depth_sum() const { return depth_sum_; }
  [[nodiscard]] std::size_t depth_max() const { return depth_max_; }

 private:
  struct Slot {
    const char* tag = nullptr;
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  /// Tags are string literals, so pointer identity finds a site's slot;
  /// a run has a few dozen sites at most.
  Slot& slot(const char* tag) {
    for (Slot& s : slots_) {
      if (s.tag == tag) return s;
    }
    return slots_.emplace_back(Slot{tag, 0, 0});
  }

  erapid::des::Engine::DispatchHook* next_;
  std::vector<Slot> slots_;
  std::int64_t begin_ns_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t depth_sum_ = 0;
  std::size_t depth_max_ = 0;
};

}  // namespace perfbench
