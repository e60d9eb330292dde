// Unit tests for RingFifo, the queue behind every output port and NIC: it
// must keep arrival order through wrap-around, growth and erase at an index.
#include "util/ring_fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "util/rng.hpp"

namespace dfly {
namespace {

std::vector<int> contents(const RingFifo<int>& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q[i]);
  return out;
}

// Pushes 0..n-1 after advancing the head by `shift` pops, so the queue wraps
// (capacity 8 once it holds more than four elements).
RingFifo<int> wrapped_queue(int shift, int n) {
  RingFifo<int> q;
  for (int i = 0; i < shift; ++i) q.push_back(-1);
  for (int i = 0; i < shift; ++i) q.pop_front();
  for (int i = 0; i < n; ++i) q.push_back(i);
  return q;
}

TEST(RingFifo, WrapsAroundInArrivalOrder) {
  RingFifo<int> q = wrapped_queue(3, 4);  // capacity 4: slots 3,0,1,2
  EXPECT_TRUE(q.wrapped());
  EXPECT_EQ(contents(q), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.front(), 0);
  q.pop_front();
  q.push_back(4);
  EXPECT_EQ(contents(q), (std::vector<int>{1, 2, 3, 4}));
  while (!q.empty()) q.pop_front();
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingFifo, GrowsWhileWrappedAndKeepsOrder) {
  RingFifo<int> q = wrapped_queue(3, 4);
  ASSERT_TRUE(q.wrapped());
  for (int i = 4; i < 11; ++i) q.push_back(i);  // 4 -> 8 -> 16 slots
  EXPECT_FALSE(q.wrapped());
  EXPECT_EQ(contents(q), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(RingFifo, EraseAtFrontMiddleAndBackOfAWrappedQueueKeepsOrder) {
  for (std::size_t at : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                         std::size_t{6}, std::size_t{7}}) {
    RingFifo<int> q = wrapped_queue(6, 8);  // capacity 8, head at slot 6
    ASSERT_TRUE(q.wrapped());
    std::vector<int> want = contents(q);
    want.erase(want.begin() + static_cast<std::ptrdiff_t>(at));
    q.erase(at);
    EXPECT_EQ(contents(q), want) << "erase at " << at;
    // The queue stays usable: pushes land behind the survivors.
    q.push_back(100);
    want.push_back(100);
    EXPECT_EQ(contents(q), want) << "push after erase at " << at;
  }
}

TEST(RingFifo, MatchesADequeUnderRandomOperations) {
  Rng rng(17);
  RingFifo<int> q;
  std::deque<int> ref;
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t roll = rng.uniform(10);
    if (ref.empty() || roll < 5) {
      q.push_back(next);
      ref.push_back(next++);
    } else if (roll < 8) {
      q.pop_front();
      ref.pop_front();
    } else {
      const std::size_t at = rng.uniform(ref.size());
      q.erase(at);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
    }
    ASSERT_EQ(q.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(q[i], ref[i]) << "op " << op;
  }
  q.clear();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dfly
