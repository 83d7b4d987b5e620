#include "obs/telemetry.hpp"

#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/hub.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace erapid::obs {

namespace {

// Fixed tuning of the telemetry plane (DESIGN.md §14).
constexpr std::size_t kTopK = 8;          ///< traffic-matrix cells per record
constexpr double kTmEwmaAlpha = 0.3;      ///< per-cell EWMA weight, in (0, 1]
constexpr double kPhaseAlpha = 0.2;       ///< phase detector EWMA weight, in (0, 1]
constexpr double kPhaseSlack = 0.05;      ///< CUSUM dead-band per window
constexpr double kPhaseThreshold = 0.25;  ///< CUSUM deviation that fires a change

}  // namespace

Telemetry::Telemetry(des::Engine& engine, std::uint32_t boards, Hub& hub, Sampler sampler)
    : engine_(engine), hub_(hub), cfg_(hub.config()), sampler_(std::move(sampler)),
      tm_(boards, kTmEwmaAlpha),
      detector_({kPhaseAlpha, kPhaseSlack, kPhaseThreshold}) {
  ERAPID_REQUIRE(!cfg_.telemetry_path.empty(), "telemetry needs an output path");
  ERAPID_REQUIRE(cfg_.telemetry_window > 0, "telemetry window must be positive");
  ERAPID_REQUIRE(static_cast<bool>(sampler_), "telemetry needs a window sampler");
  out_.open(cfg_.telemetry_path);
  ERAPID_EXPECT(static_cast<bool>(out_),
                "cannot open telemetry stream: " + cfg_.telemetry_path);
}

void Telemetry::start() {
  ERAPID_REQUIRE(cfg_.telemetry_window > 0, "telemetry window must be positive");
  if (started_) return;
  started_ = true;
  next_ = engine_.schedule(cfg_.telemetry_window, [this] { on_window(); },
                           "obs.telemetry_window");
}

void Telemetry::on_window() {
  const Cycle now = engine_.now();
  const WindowObservables o = sampler_(now);
  ++windows_;

  const bool phase_changed = detector_.update(o.utilization);
  if (phase_changed) {
    if (auto* tr = hub_.trace()) {
      Args args;
      args.add("phase_id", detector_.phase_id());
      args.add("utilization", o.utilization);
      tr->instant(hub_.track_telemetry(), "obs.phase_change", now, args.str());
    }
    if (auto* fr = hub_.flight()) {
      Args args;
      args.add("phase_id", detector_.phase_id());
      args.add("utilization", o.utilization);
      fr->record(now, "telemetry.phase_change", args.str());
    }
  }

  emit_record(now, o, phase_changed);
  tm_.roll_window();
  next_ = engine_.schedule(cfg_.telemetry_window, [this] { on_window(); },
                           "obs.telemetry_window");
}

void Telemetry::emit_record(Cycle now, const WindowObservables& o, bool phase_changed) {
  // One flat JSON object per line, fixed key order, format_trace_value for
  // every double — the byte-identical stream contract.
  std::ostringstream r;
  r << "{\"schema\": \"" << kSchema << "\""
    << ", \"window\": " << windows_
    << ", \"cycle\": " << now
    << ", \"utilization\": " << format_trace_value(o.utilization)
    << ", \"phase_id\": " << detector_.phase_id()
    << ", \"phase_changed\": " << (phase_changed ? "true" : "false")
    << ", \"delivered\": " << o.delivered
    << ", \"queue_depth\": " << o.queue_depth
    << ", \"lanes_lit\": " << o.lanes_lit
    << ", \"lanes_total\": " << o.lanes_total
    << ", \"power_mw\": " << format_trace_value(o.power_mw)
    << ", \"workload_phase\": \"" << json_escape(o.workload_phase) << "\"";

  r << ", \"tm\": {\"bytes\": " << tm_.window_bytes()
    << ", \"packets\": " << tm_.window_packets()
    << ", \"skew\": " << format_trace_value(tm_.window_skew())
    << ", \"hotspot\": " << format_trace_value(tm_.window_hotspot())
    << ", \"top\": [";
  bool first = true;
  for (const auto& e : tm_.top_k(kTopK)) {
    r << (first ? "" : ", ") << "{\"src\": " << e.src << ", \"dst\": " << e.dst
      << ", \"bytes\": " << e.bytes << ", \"packets\": " << e.packets
      << ", \"ewma\": " << format_trace_value(e.ewma_bytes) << "}";
    first = false;
  }
  r << "]}";

  r << ", \"energy\": {\"total_mw_cycles\": " << format_trace_value(o.energy_mw_cycles)
    << ", \"boards\": [";
  for (std::size_t b = 0; b < o.boards.size(); ++b) {
    const BoardEnergy& e = o.boards[b];
    r << (b == 0 ? "" : ", ") << "{\"board\": " << b
      << ", \"laser\": " << format_trace_value(e.laser_mw_cycles)
      << ", \"serdes\": " << format_trace_value(e.serdes_mw_cycles)
      << ", \"buffer\": " << format_trace_value(0.0)
      << ", \"ctrl\": " << format_trace_value(0.0) << "}";
  }
  r << "]}}";

  out_ << r.str() << "\n";
}

void Telemetry::finish() {
  if (finished_) return;
  finished_ = true;
  next_.cancel();
  out_.flush();
  ERAPID_EXPECT(static_cast<bool>(out_), "telemetry stream failed: " + cfg_.telemetry_path);
}

}  // namespace erapid::obs
