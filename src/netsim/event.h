#pragma once

// The pending-event record of the event-driven simulation engine.
//
// The engine advances time by popping the earliest pending event from a
// deterministic min-heap (netsim/event_queue.h) instead of sweeping every
// slot. An event names a *slot the engine must visit* — visiting a slot
// runs the same per-slot phase sequence as the every-slot oracle, so an
// event is a wake-up call, never a state mutation of its own. Pop order is a pure
// function of the push sequence: events order by slot, then by class
// priority (the enum value), then by a stable sequence id assigned at
// push time. No wall-clock time and no address-ordered or hash-ordered
// containers are involved anywhere, so a (seed, FaultPlan) pair replays
// bitwise on any machine and thread count.

#include <cstdint>
#include <string_view>

namespace surfnet::netsim {

/// Why the engine wants to visit a slot. The enum value is the tie-break
/// priority after the slot (lower fires first); the split exists for
/// observability and queue tests — visiting a slot is idempotent work, so
/// coalescing same-slot events of different classes is always safe.
enum class EventClass : std::uint8_t {
  FaultOnset = 0,    ///< a scripted FaultEvent fires at this slot
  FaultExpiry = 1,   ///< a down/degraded/stalled window can end here
  Launch = 2,        ///< a request has codes left to put in flight
  RequestTimeout = 3,///< an in-flight code exhausts its timeout budget
  RetryTimer = 4,    ///< a retry/EC cooldown expires (backoff timers)
  EntanglementReady, ///< a starved segment's pools reach the threshold
  CodeWake,          ///< generic re-evaluation (movement, escalation)
  // Workload-plane classes (netsim/workload.h). Departure outranks Arrival
  // so that resources released at a slot are visible to admission control
  // for arrivals of the same slot — the ordering half of the traffic
  // engine's determinism contract (DESIGN.md "Dynamic traffic").
  Departure,         ///< an admitted request finishes and frees its route
  Arrival,           ///< an open-loop workload request enters the system
};

std::string_view to_string(EventClass cls);

/// One pending wake-up in the event queue.
struct PendingEvent {
  int slot = 0;            ///< simulation slot to visit
  EventClass cls = EventClass::CodeWake;
  std::uint64_t seq = 0;   ///< assigned by the queue; stable tie-break
  int payload = -1;        ///< class-dependent id (fiber, node, plan); -1 none

  friend bool operator<(const PendingEvent& a, const PendingEvent& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.cls != b.cls)
      return static_cast<unsigned>(a.cls) < static_cast<unsigned>(b.cls);
    return a.seq < b.seq;
  }
};

}  // namespace surfnet::netsim
