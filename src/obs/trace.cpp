#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>

#include "util/expect.hpp"

namespace erapid::obs {

std::string format_trace_value(double v) {
  // %.17g would round-trip but produces noisy digits; the traced values are
  // counters, utilizations and mW levels where 12 significant digits is
  // already beyond model resolution. snprintf("%g") is locale-independent
  // for the "C" locale the simulator never changes.
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- Args -------------------------------------------------------------------

void Args::sep() {
  if (!body_.empty()) body_ += ',';
}

Args& Args::add(const char* key, std::uint64_t v) {
  ERAPID_EXPECT(key != nullptr && *key != '\0', "trace arg key must be non-empty");
  sep();
  body_ += '"';
  body_ += key;
  body_ += "\":" + std::to_string(v);
  return *this;
}

Args& Args::add(const char* key, std::int64_t v) {
  ERAPID_EXPECT(key != nullptr && *key != '\0', "trace arg key must be non-empty");
  sep();
  body_ += '"';
  body_ += key;
  body_ += "\":" + std::to_string(v);
  return *this;
}

Args& Args::add(const char* key, double v) {
  ERAPID_EXPECT(key != nullptr && *key != '\0', "trace arg key must be non-empty");
  sep();
  body_ += '"';
  body_ += key;
  body_ += "\":" + format_trace_value(v);
  return *this;
}

Args& Args::add(const char* key, const std::string& v) {
  ERAPID_EXPECT(key != nullptr && *key != '\0', "trace arg key must be non-empty");
  sep();
  body_ += '"';
  body_ += key;
  body_ += "\":\"" + json_escape(v) + '"';
  return *this;
}

// ---- ChromeTraceWriter ------------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(const std::string& path) : out_(path) {
  ERAPID_EXPECT(static_cast<bool>(out_), "cannot open trace file: " + path);
  out_ << "{\"traceEvents\":[\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
          "\"args\":{\"name\":\"erapid\"}}";
}

ChromeTraceWriter::~ChromeTraceWriter() { close(0); }

TrackId ChromeTraceWriter::register_track(const std::string& name) {
  ERAPID_EXPECT(!closed_, "cannot register a track on a closed trace");
  const TrackId id = next_track_++;
  out_ << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << id
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  return id;
}

void ChromeTraceWriter::event_prefix(const char* ph, TrackId track, const char* name,
                                     Cycle ts) {
  ++events_;
  out_ << ",\n{\"name\":\"" << json_escape(name) << "\",\"ph\":\"" << ph
       << "\",\"pid\":0,\"tid\":" << track << ",\"ts\":" << ts;
}

void ChromeTraceWriter::complete(TrackId track, const char* name, Cycle ts,
                                 CycleDelta dur, const std::string& args_json) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("X", track, name, ts);
  out_ << ",\"dur\":" << dur;
  if (!args_json.empty()) out_ << ",\"args\":" << args_json;
  out_ << '}';
}

void ChromeTraceWriter::begin(TrackId track, const char* name, Cycle ts) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("B", track, name, ts);
  out_ << '}';
}

void ChromeTraceWriter::end(TrackId track, const char* name, Cycle ts) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("E", track, name, ts);
  out_ << '}';
}

void ChromeTraceWriter::async_begin(TrackId track, const char* name, std::uint64_t id,
                                    Cycle ts, const std::string& args_json) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("b", track, name, ts);
  out_ << ",\"cat\":\"erapid\",\"id\":" << id;
  if (!args_json.empty()) out_ << ",\"args\":" << args_json;
  out_ << '}';
}

void ChromeTraceWriter::async_end(TrackId track, const char* name, std::uint64_t id,
                                  Cycle ts) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("e", track, name, ts);
  out_ << ",\"cat\":\"erapid\",\"id\":" << id << '}';
}

void ChromeTraceWriter::instant(TrackId track, const char* name, Cycle ts,
                                const std::string& args_json) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("i", track, name, ts);
  out_ << ",\"s\":\"t\"";
  if (!args_json.empty()) out_ << ",\"args\":" << args_json;
  out_ << '}';
}

void ChromeTraceWriter::counter(TrackId track, const char* name, Cycle ts,
                                double value) {
  ERAPID_EXPECT(!closed_, "trace event emitted after close()");
  event_prefix("C", track, name, ts);
  out_ << ",\"args\":{\"value\":" << format_trace_value(value) << "}}";
}

void ChromeTraceWriter::close(Cycle now) {
  if (closed_ || !out_.is_open()) return;
  closed_ = true;
  out_ << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"schema\":\"" << kSchema
       << "\",\"end_cycle\":" << now << ",\"events\":" << events_ << "}}\n";
  out_.close();
  ERAPID_INVARIANT(!out_.is_open(), "close() must release the trace file");
}

}  // namespace erapid::obs
