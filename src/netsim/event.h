#pragma once

// The pending-event record of the traffic engine (netsim/workload.h).
//
// The engine advances time by popping the earliest pending event from a
// deterministic min-heap (netsim/event_queue.h). Pop order is a pure
// function of the push sequence: events order by slot, then by class
// priority (the enum value), then by a stable sequence id assigned at
// push time. No wall-clock time and no address-ordered or hash-ordered
// containers are involved anywhere, so a (seed, params) pair replays
// bitwise on any machine and thread count.

#include <cstdint>

namespace surfnet::netsim {

/// What a pending event does. The enum value is the tie-break priority
/// after the slot (lower fires first). Departure outranks Arrival so that
/// resources released at a slot are visible to admission control for
/// arrivals of the same slot — the ordering half of the traffic engine's
/// determinism contract (DESIGN.md "Dynamic traffic").
enum class EventClass : std::uint8_t {
  Departure,  ///< an admitted request finishes and frees its route
  Arrival,    ///< an open-loop workload request enters the system
};

/// One pending event in the event queue.
struct PendingEvent {
  int slot = 0;            ///< slot at which the event fires
  EventClass cls = EventClass::Arrival;
  std::uint64_t seq = 0;   ///< assigned by the queue; stable tie-break
  int payload = -1;        ///< class-dependent id; -1 none

  friend bool operator<(const PendingEvent& a, const PendingEvent& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.cls != b.cls)
      return static_cast<unsigned>(a.cls) < static_cast<unsigned>(b.cls);
    return a.seq < b.seq;
  }
};

}  // namespace surfnet::netsim
