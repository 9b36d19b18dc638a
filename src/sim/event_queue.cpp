#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sb::sim {

namespace {

/// True when `record` is addressed to `target`: the subject of a start or
/// timer, or the receiver of a delivery. Motion completions and external
/// events never live in shard queues, so they are not matched.
bool addressed_to(const EventRecord& record, lat::BlockId target) {
  switch (record.kind) {
    case EventKind::kStart:
    case EventKind::kTimer: return record.a == target;
    case EventKind::kDelivery: return record.b == target;
    case EventKind::kMotionComplete:
    case EventKind::kExternal: return false;
  }
  return false;
}

}  // namespace

// Manual sift with a moving hole: each level costs one move instead of the
// swap (three moves) std::push_heap/pop_heap would do on 80-byte records.

void EventQueue::sift_up(size_t i) {
  EventRecord moving = std::move(heap_[i]);
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!event_before(moving, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(moving);
}

void EventQueue::sift_down(size_t i) {
  const size_t n = heap_.size();
  EventRecord moving = std::move(heap_[i]);
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && event_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!event_before(heap_[child], moving)) break;
    heap_[i] = std::move(heap_[child]);
    i = child;
  }
  heap_[i] = std::move(moving);
}

void EventQueue::push(EventRecord record) {
  record.seq = next_seq_++;
  heap_.push_back(std::move(record));
  sift_up(heap_.size() - 1);
}

EventRecord EventQueue::pop() {
  SB_EXPECTS(!heap_.empty(), "pop from empty event queue");
  EventRecord top = std::move(heap_.front());
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void EventQueue::extract_for(lat::BlockId target,
                             std::vector<EventRecord>& out) {
  const size_t first = out.size();
  size_t kept = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (addressed_to(heap_[i], target)) {
      out.push_back(std::move(heap_[i]));
    } else {
      if (kept != i) heap_[kept] = std::move(heap_[i]);
      ++kept;
    }
  }
  if (kept == heap_.size()) return;  // nothing matched
  heap_.resize(kept);
  // Floyd heap construction over the survivors.
  for (size_t i = kept / 2; i-- > 0;) sift_down(i);
  std::sort(out.begin() + static_cast<ptrdiff_t>(first), out.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return event_before(a, b);
            });
}

}  // namespace sb::sim
