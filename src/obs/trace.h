#pragma once

// Trace plane of the observability layer: structured per-event records of
// what the simulator, the decoders, and the LP solver actually did,
// exported as stable-schema JSONL (one JSON object per line).
//
// Events are a single flat POD so that recording into a pre-grown
// TraceBuffer costs a few stores and no allocation at steady state. The
// field meaning per kind — and the exact JSONL key set, which the golden
// schema test pins — is:
//
//   pool         {"ev","trial","slot","pairs_total","pairs_min"}
//                per-slot entanglement inventory over all fibers
//   fiber_down   {"ev","trial","slot","fiber","until_slot"}
//   recovery     {"ev","trial","slot","request","channel"}
//                a reroute around a failed fiber; channel is
//                "support" or "core"
//   segment_jump {"ev","trial","slot","request","from_node","to_node",
//                 "fibers","success"}
//                an opportunistic multi-fiber move (success=false: the
//                swap failed and the consumed pairs were wasted)
//   decode       {"ev","trial","slot","request","node","ec","erasures",
//                 "syndromes","logical_error"}
//                one full decode at an EC server (ec=true) or at the
//                destination readout; erasures counts erased data qubits,
//                syndromes counts lit checks over both graphs
//   delivered    {"ev","trial","slot","request","slots","corrections",
//                 "outcome"}   outcome is "success" or "logical_error"
//   timeout      {"ev","trial","slot","request","slots"}
//                a code still in flight when the simulation hit max_slots,
//                or abandoned by a per-code recovery timeout budget
//   node_down    {"ev","trial","slot","node","until_slot"}
//                a switch/server outage (fault injection)
//   degraded     {"ev","trial","slot","fiber","until_slot","factor"}
//                an entanglement-source degradation window: the fiber's
//                pair-generation rate is multiplied by factor until
//                until_slot
//   lp_solve     {"ev","trial","iterations","refactorizations",
//                 "warm_start","status","objective"}
//                status encodes routing::LpStatus: 0 optimal,
//                1 infeasible, 2 unbounded, 3 iteration limit
//   arrival      {"ev","trial","slot","request","src","dst","class"}
//                one open-loop workload request entering the system
//                (request ids are dense per run, class indexes the
//                workload's demand-class table)
//   admit        {"ev","trial","slot","request","codes","hops",
//                 "est_slots","source","distance"}
//                admission control accepted the request; source is
//                "greedy" (greedy planner), "warm" (warm-started LP
//                assist) or "cold" (cold LP solve) — IncrementalRouter
//                admits greedily only, so it emits "greedy"; distance is
//                the code distance the provider selected (0 = the
//                configuration default, adaptive selection disabled)
//   blocked      {"ev","trial","slot","request","reason"}
//                admission control rejected the request; reason is
//                "load" (admission cap / headroom shed), "capacity"
//                (no feasible route), "fidelity" (route under the
//                class fidelity floor) or "deadline" (estimated
//                delivery later than the class deadline)
//   depart       {"ev","trial","slot","request","latency"}
//                a request finished service and released its resources;
//                latency is delivery latency in slots
//
// "trial" is stamped by the trial engine when per-trial buffers are merged
// (deterministically, in trial order — so traces are bitwise-identical for
// any thread count); fields with value -1 ("trial" or "slot" outside any
// trial/slot context) are omitted from the JSONL line.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace surfnet::obs {

enum class EventKind : std::uint8_t {
  PoolLevel,
  FiberDown,
  Recovery,
  SegmentJump,
  Decode,
  Delivered,
  Timeout,
  NodeDown,
  Degraded,
  LpSolve,
  Arrival,
  Admit,
  Blocked,
  Depart,
};

std::string_view to_string(EventKind kind);

struct Event {
  EventKind kind = EventKind::PoolLevel;
  std::int32_t trial = -1;
  std::int32_t slot = -1;
  std::int32_t a = 0;  ///< meaning depends on kind (see header comment)
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
  double value = 0.0;
  bool flag = false;
  bool flag2 = false;
  /// Fifth int field, declared after the flags so the positional
  /// aggregate initializers of the earlier factories stay valid
  /// (trailing members value-initialize). Currently: admit's code
  /// distance.
  std::int32_t e = 0;

  static Event pool(int slot, int pairs_total, int pairs_min) {
    return {EventKind::PoolLevel, -1, slot, pairs_total, pairs_min,
            0,                    0,  0.0,  false,       false};
  }
  static Event fiber_down(int slot, int fiber, int until_slot) {
    return {EventKind::FiberDown, -1, slot, fiber, until_slot,
            0,                    0,  0.0,  false, false};
  }
  static Event recovery(int slot, int request, bool core_channel) {
    return {EventKind::Recovery, -1,  slot,  request, core_channel ? 1 : 0,
            0,                   0,   0.0,   false,   false};
  }
  static Event segment_jump(int slot, int request, int from_node,
                            int to_node, int fibers, bool success) {
    return {EventKind::SegmentJump, -1,     slot, request, from_node,
            to_node,                fibers, 0.0,  success, false};
  }
  static Event decode(int slot, int request, int node, bool ec, int erasures,
                      int syndromes, bool logical_error) {
    return {EventKind::Decode, -1,        slot, request,       node,
            erasures,          syndromes, 0.0,  logical_error, ec};
  }
  static Event delivered(int slot, int request, int slots, int corrections,
                         bool logical_error) {
    return {EventKind::Delivered, -1, slot, request,       slots,
            corrections,          0,  0.0,  logical_error, false};
  }
  static Event timeout(int slot, int request, int slots) {
    return {EventKind::Timeout, -1, slot,  request, slots,
            0,                  0,  0.0,   false,   false};
  }
  static Event node_down(int slot, int node, int until_slot) {
    return {EventKind::NodeDown, -1, slot,  node,  until_slot,
            0,                   0,  0.0,   false, false};
  }
  static Event degraded(int slot, int fiber, int until_slot, double factor) {
    return {EventKind::Degraded, -1, slot,   fiber, until_slot,
            0,                   0,  factor, false, false};
  }
  static Event lp_solve(int iterations, int refactorizations, bool warm,
                        int status, double objective) {
    return {EventKind::LpSolve, -1,     -1,        iterations, refactorizations,
            status,             0,      objective, warm,       false};
  }
  static Event arrival(int slot, int request, int src, int dst,
                       int demand_class) {
    return {EventKind::Arrival, -1,  slot, request, src,
            dst,                demand_class, 0.0, false, false};
  }
  /// `source` is the AdmitSource enum value (see the header comment);
  /// `distance` is the code distance the provider selected (0 = the
  /// configuration default).
  static Event admit(int slot, int request, int codes, int hops,
                     int est_slots, int source, int distance) {
    return {EventKind::Admit, -1,        slot, request, codes,
            hops,             est_slots, static_cast<double>(source),
            false,            false,     distance};
  }
  /// `reason` is the BlockReason enum value (see the header comment).
  static Event blocked(int slot, int request, int reason) {
    return {EventKind::Blocked, -1, slot, request, reason,
            0,                  0,  0.0,  false,   false};
  }
  static Event depart(int slot, int request, int latency) {
    return {EventKind::Depart, -1, slot, request, latency,
            0,                 0,  0.0,  false,   false};
  }
};

/// One JSONL line (no trailing newline) with the kind's key set.
std::string to_jsonl(const Event& event);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const Event& event) = 0;
};

/// In-memory sink. Parallel engines give each trial its own buffer and
/// flush the buffers in trial order, which makes the combined trace
/// deterministic and thread-count invariant.
class TraceBuffer final : public TraceSink {
 public:
  void record(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Forward every event to `out` in recorded order, stamping `trial` into
  /// events that do not carry a trial id yet.
  void flush_to(TraceSink& out, std::int32_t trial) const;

 private:
  std::vector<Event> events_;
};

/// Streams events as JSONL to a file (owned) or a stdio stream (borrowed,
/// e.g. stdout).
class JsonlTraceWriter final : public TraceSink {
 public:
  explicit JsonlTraceWriter(const std::string& path);
  explicit JsonlTraceWriter(std::FILE* stream) : stream_(stream) {}
  ~JsonlTraceWriter() override;
  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  void record(const Event& event) override;

 private:
  std::FILE* stream_ = nullptr;
  bool owned_ = false;
};

}  // namespace surfnet::obs
