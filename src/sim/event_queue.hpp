// Event queue for the discrete-event engine: a calendar queue (Brown 1988)
// with lazy per-bucket sorting and a heap-backed overflow tier for far-future
// events. O(1) amortised push/pop for the simulator's near-monotonic event
// stream. It dispatches in strict (time, seq) order, the order a binary heap
// of the same events gives (the differential tests keep such a heap as the
// oracle), so the choice of queue cannot change any simulation result.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/units.hpp"

namespace dfly {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// Small fixed-size event payload interpreted by the receiving handler.
struct EventPayload {
  std::int32_t kind = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Implemented by any subsystem that receives events (network, replay, ...).
class EventHandler {
 public:
  /// event_shard() result meaning "not bound to any shard": the engine runs
  /// such events on its global lane, alone, with every shard parked — so a
  /// global handler may safely touch any state.
  static constexpr int kGlobalShard = -1;

  virtual ~EventHandler() = default;
  virtual void handle_event(SimTime now, const EventPayload& payload) = 0;

  /// Which shard (dragonfly group) the event's state lives in, or
  /// kGlobalShard. Only consulted when the engine runs sharded; handlers that
  /// don't override it (replay, probes, faults, health, background) stay on
  /// the global lane and need no thread-safety work.
  virtual int event_shard(const EventPayload& payload) const {
    (void)payload;
    return kGlobalShard;
  }
};

struct QueuedEvent {
  SimTime time;
  std::uint64_t seq;
  EventHandler* handler;
  EventPayload payload;
  bool operator>(const QueuedEvent& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

/// Occupancy / behaviour counters of the calendar queue, exposed through
/// Engine::scheduler_stats() so HealthMonitor and metrics can report them.
struct SchedulerStats {
  std::size_t buckets = 0;           ///< current calendar array size
  SimTime bucket_width = 0;          ///< ns covered by one bucket
  std::size_t calendar_events = 0;   ///< events currently in the bucket array
  std::size_t overflow_events = 0;   ///< events parked in the overflow tier
  std::size_t peak_pending = 0;      ///< high-water mark of total pending events
  std::uint64_t resizes = 0;         ///< bucket-array rehashes since construction
  std::uint64_t overflow_promotions = 0;  ///< events promoted overflow -> calendar
};

/// Calendar queue tuned for a near-monotonic, short-horizon event stream.
///
/// Events within the current window of `buckets() * bucket_width()` ns are
/// hashed by time into an array of buckets; each bucket stays unsorted until
/// it becomes the serving bucket (lazy sort, min kept at the back). Events
/// beyond the window (retransmit backoff timers, fault schedules) go to a
/// heap-backed overflow tier and are promoted in (time, seq) order as the
/// window slides over them. The array doubles/halves and the bucket width is
/// retuned from the live event spacing whenever occupancy skews.
///
/// All event times must be non-negative. pop_min()/min() return events in
/// strict (time, seq) order, as a binary heap would.
class CalendarEventQueue {
 public:
  CalendarEventQueue();

  /// The common case (a push into the current window) runs inline; a push
  /// before the window rewinds, and a push that overfills the array resizes,
  /// both out of line.
  void push(const QueuedEvent& ev) {
    assert(ev.time >= 0 && "calendar queue requires non-negative times");
    const std::uint64_t b = bucket_of(ev.time);
    if (size_ == 0) {
      cur_b_ = b;  // re-anchor the window on the first event
    } else if (b < cur_b_) {
      rewind(b);
    }
    if (b >= cur_b_ + buckets_.size()) {
      overflow_.push(ev);
      overflow_min_b_ = std::min(overflow_min_b_, b);
    } else {
      insert_calendar(ev);
      if (b == cur_b_) forget_if_retune_due();
    }
    ++size_;
    if (size_ > stats_.peak_pending) stats_.peak_pending = size_;
    if (size_ > 2 * buckets_.size()) resize(2 * buckets_.size());
  }

  /// Smallest pending event; lazily positions and sorts the serving bucket.
  /// The located position is kept while the serving bucket stays the same
  /// (see located_), so a run of dispatches from one bucket locates once.
  const QueuedEvent& min() {
    if (!located_) locate_min();
    return slot(cur_b_).events.back();
  }

  QueuedEvent pop_min() {
    if (!located_) locate_min();
    Bucket& bk = slot(cur_b_);
    const QueuedEvent ev = bk.events.back();
    bk.events.pop_back();
    --cal_size_;
    --size_;
    pop_times_[pop_times_next_] = ev.time;
    if (++pop_times_next_ == kGapWindow) {
      pop_times_next_ = 0;
      pop_times_full_ = true;
    }
    ++pops_since_resize_;
    if (bk.events.empty()) {
      bk.sorted = false;
      located_ = false;
    } else {
      forget_if_retune_due();
    }
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4)
      resize(buckets_.size() / 2);
    return ev;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Serializes the complete queue — events plus the calendar's tuning state
  /// (bucket layout, width, dispatch-gap ring, retune cooldown, stats
  /// counters) — so a restored queue reproduces not just the dispatch order
  /// but every future resize/promotion decision bit-for-bit. Handlers are
  /// written as small ids via `id_of` (they are raw pointers otherwise).
  void save_state(ckpt::Writer& w,
                  const std::function<std::uint32_t(EventHandler*)>& id_of) const;
  /// Restores into a freshly constructed queue; `handler_of` maps saved ids
  /// back to live handlers. Throws std::runtime_error on malformed input.
  void load_state(ckpt::Reader& r,
                  const std::function<EventHandler*(std::uint32_t)>& handler_of);

  /// A snapshot by value: two snapshots taken at different times differ.
  SchedulerStats stats() const {
    SchedulerStats s = stats_;
    s.buckets = buckets_.size();
    s.bucket_width = SimTime{1} << width_shift_;
    s.calendar_events = cal_size_;
    s.overflow_events = size_ - cal_size_;
    return s;
  }

 private:
  struct Bucket {
    std::vector<QueuedEvent> events;
    bool sorted = false;  // descending by (time, seq): min at the back
  };

  static constexpr std::uint64_t kNoBucket = UINT64_MAX;
  static constexpr std::size_t kMinBuckets = 16;
  /// Dispatch-gap window: width retunes prefer the spacing of the last this
  /// many dispatched events once available.
  static constexpr std::size_t kGapWindow = 64;
  /// A sorted serving bucket larger than this triggers a width retune:
  /// per-push ordered inserts into a huge vector are one calendar-queue
  /// failure mode.
  static constexpr std::size_t kServeBucketLimit = 128;
  /// Pathology-triggered retunes only fire this many pops after the last
  /// resize, so the dispatch-gap ring has refreshed.
  static constexpr std::uint64_t kRetuneCooldown = 4 * kGapWindow;

  // Bucket width and array size are powers of two so the hot path shifts and
  // masks instead of dividing.
  std::uint64_t bucket_of(SimTime t) const { return static_cast<std::uint64_t>(t) >> width_shift_; }
  Bucket& slot(std::uint64_t b) { return buckets_[b & bucket_mask_]; }

  /// A located serving bucket past the retune cooldown and over the serving
  /// limit is exactly where locate_min() would run its retune check, whose
  /// answer moves with the dispatch-gap ring; the position is dropped so that
  /// check runs.
  void forget_if_retune_due() {
    if (pops_since_resize_ >= kRetuneCooldown &&
        slot(cur_b_).events.size() > kServeBucketLimit)
      located_ = false;
  }

  /// Advances cur_b_ to the bucket holding the global minimum and sorts it.
  /// Called again with no change to that bucket, no promotion due and no
  /// retune possible, it would change nothing, which is what makes
  /// remembering the result (located_) exact.
  void locate_min();
  /// Moves every overflow event whose bucket is inside the current window
  /// into the calendar array.
  void promote_overflow();
  /// Inserts into the calendar tier (ordered insert if the slot is sorted).
  void insert_calendar(const QueuedEvent& ev) {
    Bucket& bk = slot(bucket_of(ev.time));
    if (bk.sorted) {
      // Descending order, min at the back: ties insert towards the front so
      // an equal-time event with a larger seq pops after the ones queued.
      const auto it = std::upper_bound(bk.events.begin(), bk.events.end(), ev, std::greater<>{});
      bk.events.insert(it, ev);
    } else {
      bk.events.push_back(ev);
    }
    ++cal_size_;
  }
  /// Moves the serving position back to `new_cur` (a push landed before the
  /// current window); events that fall out of the shrunk window spill to the
  /// overflow tier.
  void rewind(std::uint64_t new_cur);
  /// Rebuilds the calendar with `nbuckets` buckets and a width retuned from
  /// the observed event spacing, reusing the bucket storage.
  void resize(std::size_t nbuckets);
  /// Preferred bucket-width shift: from the spacing of recently *dispatched*
  /// events once enough have been seen (that is the density the serving
  /// bucket experiences), else from a sample of the pending set.
  int tuned_width_shift(const std::vector<QueuedEvent>& all) const;

  std::vector<Bucket> buckets_;
  std::uint64_t bucket_mask_;  ///< buckets_.size() - 1 (size is a power of two)
  int width_shift_;            ///< log2 of the bucket width in ns
  std::uint64_t cur_b_ = 0;    ///< absolute index of the serving bucket
  /// cur_b_ holds the minimum, sorted, and locate_min() would leave every
  /// field as it is. Set by locate_min(); kept by pops that leave the serving
  /// bucket non-empty and by pushes that do not rewind; cleared by rewind(),
  /// resize(), a pop that empties the serving bucket, and
  /// forget_if_retune_due().
  bool located_ = false;
  std::size_t size_ = 0;       ///< calendar + overflow
  std::size_t cal_size_ = 0;   ///< events in the bucket array
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> overflow_;
  std::uint64_t overflow_min_b_ = kNoBucket;  ///< bucket of overflow_.top()
  /// Ring of recent dispatch times, the width tuner's input.
  std::array<SimTime, kGapWindow> pop_times_{};
  std::size_t pop_times_next_ = 0;
  bool pop_times_full_ = false;
  std::uint64_t pops_since_resize_ = 0;  ///< retune cooldown
  SchedulerStats stats_;  ///< counters only; stats() fills in the occupancy
  std::vector<QueuedEvent> gather_;  ///< resize()'s scratch, kept for its capacity
};

}  // namespace dfly
