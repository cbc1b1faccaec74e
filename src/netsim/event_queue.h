#pragma once

// Deterministic pending-event min-heap.
//
// A std::priority_queue over PendingEvent ordered by (slot, class
// priority, sequence id). push() assigns sequence ids in arrival order,
// one per event, so no two events compare equal and the order is strict
// and total: two events at the same slot with the same class pop in the
// order they were scheduled. Pop order is therefore a pure function of
// the push sequence, which is what lets the traffic engine replay a
// (seed, params) pair bitwise.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "netsim/event.h"

namespace surfnet::netsim {

class EventQueue {
 public:
  void push(int slot, EventClass cls, int payload = -1) {
    heap_.push(PendingEvent{slot, cls, next_seq_++, payload});
    if (heap_.size() > peak_) peak_ = heap_.size();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const PendingEvent& top() const { return heap_.top(); }

  PendingEvent pop() {
    PendingEvent out = heap_.top();
    heap_.pop();
    return out;
  }

  /// Largest number of simultaneously pending events so far (reported as
  /// the "traffic.event_queue_peak" gauge).
  std::size_t peak_size() const { return peak_; }
  /// Total events ever pushed (sequence ids are dense from 0).
  std::uint64_t pushed() const { return next_seq_; }

 private:
  /// Orders the heap so that its top is the earliest event.
  struct Later {
    bool operator()(const PendingEvent& a, const PendingEvent& b) const {
      return b < a;
    }
  };

  std::priority_queue<PendingEvent, std::vector<PendingEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace surfnet::netsim
