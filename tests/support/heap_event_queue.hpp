// Binary-heap event queue: the reference ordering for CalendarEventQueue.
//
// std::priority_queue over (time, seq), O(log n) push/pop. The simulator
// never runs on it; the scheduler's differential tests use it as the oracle
// and bench_micro_engine as the baseline side of its head-to-head.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace dfly {

class HeapEventQueue {
 public:
  void push(const QueuedEvent& ev) { queue_.push(ev); }
  const QueuedEvent& min() const { return queue_.top(); }
  QueuedEvent pop_min() {
    QueuedEvent ev = queue_.top();
    queue_.pop();
    return ev;
  }
  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue_;
};

}  // namespace dfly
