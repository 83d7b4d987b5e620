#include "obs/flight_recorder.hpp"

#include <fstream>

#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace erapid::obs {

FlightRecorder::FlightRecorder(std::size_t depth, std::string path)
    : depth_(depth), path_(std::move(path)) {
  ERAPID_REQUIRE(depth_ > 0, "flight recorder needs a positive ring depth");
  ERAPID_REQUIRE(!path_.empty(), "flight recorder needs a dump path");
  ring_.reserve(depth_);
}

void FlightRecorder::record(Cycle now, const std::string& kind,
                            const std::string& detail_json) {
  ERAPID_REQUIRE(!kind.empty(), "flight recorder event needs a kind");
  ++recorded_;
  if (ring_.size() < depth_) {
    ring_.push_back({now, kind, detail_json});
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  ring_[head_] = {now, kind, detail_json};
  head_ = (head_ + 1) % depth_;
}

void FlightRecorder::dump(Cycle now, const std::string& reason,
                          const std::string& trigger) {
  ++dumps_;
  std::ofstream out(path_);
  ERAPID_EXPECT(static_cast<bool>(out), "cannot open flight recorder dump: " + path_);
  out << "{\n"
      << "  \"schema\": \"" << kSchema << "\",\n"
      << "  \"reason\": \"" << json_escape(reason) << "\",\n"
      << "  \"trigger\": \"" << json_escape(trigger) << "\",\n"
      << "  \"cycle\": " << now << ",\n"
      << "  \"depth\": " << depth_ << ",\n"
      << "  \"events_recorded\": " << recorded_ << ",\n"
      << "  \"events\": [";
  bool first = true;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = ring_[(head_ + i) % ring_.size()];  // oldest first
    out << (first ? "\n" : ",\n") << "    {\"cycle\": " << e.cycle << ", \"kind\": \""
        << json_escape(e.kind) << "\", \"detail\": "
        << (e.detail.empty() ? "{}" : e.detail) << "}";
    first = false;
  }
  out << (first ? "]\n" : "\n  ]\n") << "}\n";
  out.close();  // flush before the check, so a full disk fails here
  ERAPID_EXPECT(static_cast<bool>(out), "flight recorder dump failed: " + path_);
}

}  // namespace erapid::obs
