#pragma once

// Deterministic pending-event min-heap.
//
// A hand-rolled binary heap over PendingEvent with a strict total order:
// (slot, class priority, stable sequence id). The sequence id is assigned
// by push() in arrival order, so two events at the same slot with the
// same class pop in the order they were scheduled — unlike
// std::priority_queue, whose sift order leaves equal keys in an
// unspecified relative order. Pop order is therefore a pure function of
// the push sequence, which is what lets the event engine promise bitwise
// replay of the every-slot oracle.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/event.h"

namespace surfnet::netsim {

class EventQueue {
 public:
  void push(int slot, EventClass cls, int payload = -1) {
    heap_.push_back(PendingEvent{slot, cls, next_seq_++, payload});
    sift_up(heap_.size() - 1);
    if (heap_.size() > peak_) peak_ = heap_.size();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const PendingEvent& top() const { return heap_.front(); }

  PendingEvent pop() {
    PendingEvent out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

  /// Largest number of simultaneously pending events so far (reported as
  /// the "traffic.event_queue_peak" gauge).
  std::size_t peak_size() const { return peak_; }
  /// Total events ever pushed (sequence ids are dense from 0).
  std::uint64_t pushed() const { return next_seq_; }

 private:
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[i] < heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    for (;;) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < heap_.size() && heap_[left] < heap_[smallest])
        smallest = left;
      if (right < heap_.size() && heap_[right] < heap_[smallest])
        smallest = right;
      if (smallest == i) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<PendingEvent> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace surfnet::netsim
