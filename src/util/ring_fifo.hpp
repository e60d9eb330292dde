// Growable ring-buffer FIFO for the fabric's per-port chunk queues and
// per-NIC message queues.
//
// Arrival order is kept by every operation, including erase() at an index
// (RoundRobinVc arbitration picks from the middle of a port queue). Storage is
// one power-of-two array, allocated on the first push and doubled when full,
// so an idle port costs no heap and a busy one stops allocating once its
// array is as deep as its deepest backlog.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace dfly {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// True when the elements run past the end of the storage and continue at
  /// its start (tests use it to reach that layout).
  bool wrapped() const { return head_ + size_ > buf_.size(); }

  /// i-th element in arrival order (0 = oldest).
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& front() { return (*this)[0]; }

  void push_back(const T& value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  /// Removes the i-th element; the others keep their order. The shorter side
  /// of the queue moves one slot towards the gap.
  void erase(std::size_t i) {
    assert(i < size_);
    if (i < size_ / 2) {
      for (std::size_t k = i; k > 0; --k) (*this)[k] = (*this)[k - 1];
      pop_front();
    } else {
      for (std::size_t k = i; k + 1 < size_; ++k) (*this)[k] = (*this)[k + 1];
      --size_;
    }
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  void grow() {
    std::vector<T> bigger(buf_.empty() ? kInitialCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity == buf_.size(), a power of two (or 0)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dfly
