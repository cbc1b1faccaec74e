#include "obs/trace.h"

#include <cmath>
#include <stdexcept>

namespace surfnet::obs {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::PoolLevel: return "pool";
    case EventKind::FiberDown: return "fiber_down";
    case EventKind::Recovery: return "recovery";
    case EventKind::SegmentJump: return "segment_jump";
    case EventKind::Decode: return "decode";
    case EventKind::Delivered: return "delivered";
    case EventKind::Timeout: return "timeout";
    case EventKind::NodeDown: return "node_down";
    case EventKind::Degraded: return "degraded";
    case EventKind::LpSolve: return "lp_solve";
    case EventKind::Arrival: return "arrival";
    case EventKind::Admit: return "admit";
    case EventKind::Blocked: return "blocked";
    case EventKind::Depart: return "depart";
  }
  return "?";
}

namespace {

void append_int(std::string& out, const char* key, std::int64_t value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld", key,
                static_cast<long long>(value));
  out += buf;
}

void append_bool(std::string& out, const char* key, bool value) {
  out += ",\"";
  out += key;
  out += value ? "\":true" : "\":false";
}

void append_double(std::string& out, const char* key, double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e308 : -1e308;
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, value);
  out += buf;
}

void append_str(std::string& out, const char* key, std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += value;
  out += '"';
}

}  // namespace

std::string to_jsonl(const Event& event) {
  std::string out = "{\"ev\":\"";
  out += to_string(event.kind);
  out += '"';
  if (event.trial >= 0) append_int(out, "trial", event.trial);
  if (event.slot >= 0) append_int(out, "slot", event.slot);
  switch (event.kind) {
    case EventKind::PoolLevel:
      append_int(out, "pairs_total", event.a);
      append_int(out, "pairs_min", event.b);
      break;
    case EventKind::FiberDown:
      append_int(out, "fiber", event.a);
      append_int(out, "until_slot", event.b);
      break;
    case EventKind::Recovery:
      append_int(out, "request", event.a);
      append_str(out, "channel", event.b ? "core" : "support");
      break;
    case EventKind::SegmentJump:
      append_int(out, "request", event.a);
      append_int(out, "from_node", event.b);
      append_int(out, "to_node", event.c);
      append_int(out, "fibers", event.d);
      append_bool(out, "success", event.flag);
      break;
    case EventKind::Decode:
      append_int(out, "request", event.a);
      append_int(out, "node", event.b);
      append_bool(out, "ec", event.flag2);
      append_int(out, "erasures", event.c);
      append_int(out, "syndromes", event.d);
      append_bool(out, "logical_error", event.flag);
      break;
    case EventKind::Delivered:
      append_int(out, "request", event.a);
      append_int(out, "slots", event.b);
      append_int(out, "corrections", event.c);
      append_str(out, "outcome", event.flag ? "logical_error" : "success");
      break;
    case EventKind::Timeout:
      append_int(out, "request", event.a);
      append_int(out, "slots", event.b);
      break;
    case EventKind::NodeDown:
      append_int(out, "node", event.a);
      append_int(out, "until_slot", event.b);
      break;
    case EventKind::Degraded:
      append_int(out, "fiber", event.a);
      append_int(out, "until_slot", event.b);
      append_double(out, "factor", event.value);
      break;
    case EventKind::LpSolve:
      append_int(out, "iterations", event.a);
      append_int(out, "refactorizations", event.b);
      append_bool(out, "warm_start", event.flag);
      append_int(out, "status", event.c);
      append_double(out, "objective", event.value);
      break;
    case EventKind::Arrival:
      append_int(out, "request", event.a);
      append_int(out, "src", event.b);
      append_int(out, "dst", event.c);
      append_int(out, "class", event.d);
      break;
    case EventKind::Admit: {
      append_int(out, "request", event.a);
      append_int(out, "codes", event.b);
      append_int(out, "hops", event.c);
      append_int(out, "est_slots", event.d);
      // Encoding shared with netsim::AdmitSource (0 greedy, 1 warm, 2 cold).
      const int source = static_cast<int>(event.value);
      append_str(out, "source",
                 source == 0 ? "greedy" : (source == 1 ? "warm" : "cold"));
      append_int(out, "distance", event.e);
      break;
    }
    case EventKind::Blocked: {
      append_int(out, "request", event.a);
      // Encoding shared with netsim::BlockReason (0 load, 1 capacity,
      // 2 fidelity, 3 deadline).
      static constexpr std::string_view kReasons[] = {"load", "capacity",
                                                      "fidelity", "deadline"};
      const int reason = event.b >= 0 && event.b < 4 ? event.b : 1;
      append_str(out, "reason", kReasons[reason]);
      break;
    }
    case EventKind::Depart:
      append_int(out, "request", event.a);
      append_int(out, "latency", event.b);
      break;
  }
  out += '}';
  return out;
}

void TraceBuffer::flush_to(TraceSink& out, std::int32_t trial) const {
  for (const Event& event : events_) {
    if (event.trial >= 0) {
      out.record(event);
      continue;
    }
    Event stamped = event;
    stamped.trial = trial;
    out.record(stamped);
  }
}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path)
    : stream_(std::fopen(path.c_str(), "w")), owned_(true) {
  if (!stream_)
    throw std::runtime_error("JsonlTraceWriter: cannot open " + path);
}

JsonlTraceWriter::~JsonlTraceWriter() {
  if (stream_ && owned_) std::fclose(stream_);
}

void JsonlTraceWriter::record(const Event& event) {
  const std::string line = to_jsonl(event);
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
}

}  // namespace surfnet::obs
