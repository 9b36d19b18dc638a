#pragma once
// The pending-event set: an array-backed binary min-heap of EventRecords,
// ordered by (time, seq). Records are stored by value — pushing a built-in
// event allocates nothing, and the heap is one contiguous array. The
// classic simulator holds one; the sharded engine holds one per shard plus
// a sequential one for grid-mutating events.

#include <vector>

#include "sim/event.hpp"

namespace sb::sim {

class EventQueue {
 public:
  /// Takes ownership; assigns the tie-breaking sequence number.
  void push(EventRecord record);

  /// Removes and returns the earliest event (time, then seq). Queue must be
  /// non-empty.
  EventRecord pop();

  /// Earliest event without removing it; nullptr when empty.
  [[nodiscard]] const EventRecord* peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Removes every pending event addressed to `target` (start/timer events
  /// whose subject it is, deliveries whose receiver it is) and appends them
  /// to `out` in (time, seq) order. The sharded simulator re-homes a
  /// migrating block's events with this when a motion carries it across a
  /// stripe boundary; motions are rare, so the linear scan is off the hot
  /// path.
  void extract_for(lat::BlockId target, std::vector<EventRecord>& out);

  [[nodiscard]] size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  void sift_up(size_t i);
  void sift_down(size_t i);

  std::vector<EventRecord> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace sb::sim
