// Structured trace — the time-resolved complement to SimResult.
//
// ChromeTraceWriter receives a deterministic stream of simulation events
// (spans, instant marks, counter samples) and serializes it as
// Chrome/Perfetto trace-event JSON (load the file in chrome://tracing or
// ui.perfetto.dev; post-process it with tools/trace/summarize_trace.py).
// Tracks map to tids of one synthetic process; async spans carry an id so
// overlapping lifecycles (lane grants) render correctly.
//
// Determinism contract (DESIGN.md §8): every timestamp is simulated time
// (des::Engine::now() cycles) — never wall clock; event order is the
// deterministic DES execution order; numeric formatting is fixed-precision.
// Two same-seed runs therefore produce byte-identical trace files, and the
// golden-trace test pins that promise.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "util/types.hpp"

namespace erapid::obs {

/// Handle for a registered track (a named timeline in the viewer).
using TrackId = std::uint32_t;

/// Deterministic `{"k":v,...}` builder for event argument payloads.
class Args {
 public:
  Args& add(const char* key, std::uint64_t v);
  Args& add(const char* key, std::int64_t v);
  Args& add(const char* key, double v);
  Args& add(const char* key, const std::string& v);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }
  [[nodiscard]] bool empty() const { return body_.empty(); }

 private:
  void sep();
  std::string body_;
};

/// Deterministic Chrome trace-event JSON writer (streaming). The one trace
/// backend: Hub::trace(), MonitorSet and the probe macros all write here.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(const std::string& path);
  ~ChromeTraceWriter();

  /// Registers a named track; events reference it by the returned id.
  /// Tracks registered in deterministic (construction) order only.
  TrackId register_track(const std::string& name);

  /// A span of simulated time [ts, ts + dur] whose end is known at
  /// emission (e.g. a Lock-Step window). Spans on one track must not
  /// overlap.
  void complete(TrackId track, const char* name, Cycle ts, CycleDelta dur,
                const std::string& args_json = "");

  /// Open-ended span pair on one track (strictly nested / sequential).
  void begin(TrackId track, const char* name, Cycle ts);
  void end(TrackId track, const char* name, Cycle ts);

  /// Async span pair: lifecycles that overlap on a track (lane grant →
  /// release) are disambiguated by `id`.
  void async_begin(TrackId track, const char* name, std::uint64_t id, Cycle ts,
                   const std::string& args_json = "");
  void async_end(TrackId track, const char* name, std::uint64_t id, Cycle ts);

  /// Instantaneous mark (fault injected, DBR re-solve, ...).
  void instant(TrackId track, const char* name, Cycle ts,
               const std::string& args_json = "");

  /// Sample of a counter track (power, queue depth, lanes lit, ...).
  void counter(TrackId track, const char* name, Cycle ts, double value);

  /// Writes the footer and closes the file. Idempotent. A failed write
  /// shows in ok() rather than throwing, so the destructor can call this;
  /// the owner checks ok() after its explicit close.
  void close(Cycle now);

  /// False when the output file could not be opened or written (after
  /// close(), this covers the final flush).
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  /// Trace schema version stamped into the file footer.
  static constexpr const char* kSchema = "erapid-trace-1";

 private:
  void event_prefix(const char* ph, TrackId track, const char* name, Cycle ts);

  std::ofstream out_;
  std::uint32_t next_track_ = 0;
  std::uint64_t events_ = 0;
  bool closed_ = false;
};

/// Formats a double exactly like the trace writers do (shortest fixed form,
/// deterministic across runs of the same binary).
[[nodiscard]] std::string format_trace_value(double v);

/// JSON string escaping for names/args emitted by the writers.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace erapid::obs
