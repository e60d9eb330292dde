// Differential and behavioural tests for the calendar-queue event scheduler.
//
// The calendar queue replaced the binary heap on the engine's hottest path;
// these tests pin the contract that made the swap safe: both queues dispatch
// in bit-identical (time, seq) order on any event stream, including same-time
// ties, in-handler scheduling, and far-future backoff times.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "support/heap_event_queue.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dfly {
namespace {

class NullHandler : public EventHandler {
 public:
  void handle_event(SimTime, const EventPayload&) override {}
};

// Feeds the same randomized push/pop stream to both queues and asserts every
// popped event matches exactly.
void differential_stream(std::uint64_t seed, int ops, SimTime horizon, double far_fraction) {
  Rng rng(seed);
  NullHandler handler;
  HeapEventQueue heap;
  CalendarEventQueue calendar;
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (int i = 0; i < ops; ++i) {
    const bool do_push = heap.empty() || rng.bernoulli(0.55);
    if (do_push) {
      SimTime when;
      const double roll = rng.uniform_double();
      if (roll < far_fraction) {
        // Far-future: an exponential-backoff retransmit timer.
        when = now + (SimTime{20} * units::kMicrosecond
                      << static_cast<int>(rng.uniform(16)));
      } else if (roll < far_fraction + 0.2) {
        when = now;  // same-time tie
      } else {
        when = now + static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(horizon)));
      }
      const QueuedEvent ev{when, seq++, &handler,
                           EventPayload{static_cast<std::int32_t>(i), 0, 0, 0}};
      heap.push(ev);
      calendar.push(ev);
    } else {
      ASSERT_FALSE(calendar.empty());
      const QueuedEvent a = heap.pop_min();
      const QueuedEvent b = calendar.pop_min();
      ASSERT_EQ(a.time, b.time) << "op " << i << " seed " << seed;
      ASSERT_EQ(a.seq, b.seq) << "op " << i << " seed " << seed;
      ASSERT_GE(a.time, now);
      now = a.time;
    }
  }
  // Drain both; order must stay identical to the end.
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, DifferentialShortHorizon) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    differential_stream(seed, 4000, 2000, 0.0);
}

TEST(CalendarQueue, DifferentialBackoffHeavy) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed)
    differential_stream(seed, 4000, 2000, 0.3);
}

TEST(CalendarQueue, DifferentialWideHorizon) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed)
    differential_stream(seed, 3000, 50 * units::kMillisecond, 0.1);
}

// Interleaves min() with push() and pop_min(). The calendar keeps the located
// serving bucket across pops and pushes until a rewind, a resize, an emptied
// bucket or a due retune; this stream checks each of them. Every step first
// calls min(), then mutates: a push at `now` lands before the located bucket
// whenever the minimum is later (rewind), far-future pushes park in the
// overflow tier and are promoted as the window slides, bursts grow the bucket
// array (resize) between a min() and the next pop_min(), and probes push
// into the located bucket, below its minimum or into a later bucket between
// two min() calls and a pop_min().
void differential_min_interleaved(std::uint64_t seed, int ops) {
  Rng rng(seed);
  NullHandler handler;
  HeapEventQueue heap;
  CalendarEventQueue calendar;
  std::uint64_t seq = 0;
  SimTime now = 0;
  auto push = [&](SimTime when) {
    const QueuedEvent ev{when, seq++, &handler, EventPayload{}};
    heap.push(ev);
    calendar.push(ev);
  };
  std::uint64_t burst_resizes = 0;
  for (int i = 0; i < ops; ++i) {
    if (!heap.empty()) {
      ASSERT_EQ(calendar.min().time, heap.min().time) << "op " << i << " seed " << seed;
      ASSERT_EQ(calendar.min().seq, heap.min().seq) << "op " << i << " seed " << seed;
    }
    const double roll = rng.uniform_double();
    const std::size_t buckets = calendar.stats().buckets;
    if (heap.empty() || roll < 0.3) {
      push(now + static_cast<SimTime>(rng.uniform(2000)));
    } else if (roll < 0.4) {
      push(now);
    } else if (roll < 0.45) {
      push(now + (SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(12))));
    } else if (roll < 0.55) {
      // min() -> push -> min() -> pop_min() around the located bucket.
      const SimTime width = calendar.stats().bucket_width;
      const SimTime min_t = calendar.min().time;
      const SimTime bucket_start = min_t / width * width;
      SimTime when;
      const std::uint64_t where = rng.uniform(3);
      if (where == 0) {  // into the serving bucket
        const SimTime lo = std::max(now, bucket_start);
        when = lo + static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(bucket_start + width - lo)));
      } else if (where == 1) {  // below its minimum (same bucket or a rewind)
        when = now + static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(min_t - now + 1)));
      } else {  // into a later bucket
        when = bucket_start + width +
               static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(4 * width)));
      }
      push(when);
      ASSERT_EQ(calendar.min().time, heap.min().time) << "op " << i << " seed " << seed;
      ASSERT_EQ(calendar.min().seq, heap.min().seq) << "op " << i << " seed " << seed;
      const QueuedEvent a = heap.pop_min();
      const QueuedEvent b = calendar.pop_min();
      ASSERT_EQ(a.time, b.time) << "op " << i << " seed " << seed;
      ASSERT_EQ(a.seq, b.seq) << "op " << i << " seed " << seed;
      now = a.time;
    } else if (roll < 0.57 && 2 * buckets + 1 - calendar.size() <= 512) {
      // Just enough pushes to cross the grow threshold (size > 2 * buckets).
      const std::uint64_t resizes = calendar.stats().resizes;
      for (std::size_t n = 2 * buckets + 1 - calendar.size(); n > 0; --n)
        push(now + static_cast<SimTime>(rng.uniform(5000)));
      burst_resizes += calendar.stats().resizes - resizes;
    } else {
      const QueuedEvent a = heap.pop_min();
      const QueuedEvent b = calendar.pop_min();
      ASSERT_EQ(a.time, b.time) << "op " << i << " seed " << seed;
      ASSERT_EQ(a.seq, b.seq) << "op " << i << " seed " << seed;
      now = a.time;
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(calendar.min().seq, heap.min().seq);
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_GT(burst_resizes, 0u) << "no resize landed between a min() and a pop_min()";
  EXPECT_GT(calendar.stats().overflow_promotions, 0u);
}

TEST(CalendarQueue, DifferentialMinInterleaved) {
  for (std::uint64_t seed = 31; seed <= 38; ++seed) differential_min_interleaved(seed, 4000);
}

// Fixed op streams through CalendarEventQueue. Each stream's pop order and its
// SchedulerStats at every 256th op and at the end are folded into two FNV-1a
// hashes. The pinned values were recorded with the queue that located the
// minimum once per dispatch, before it kept the position per serving bucket;
// any change to dispatch order, resizes or promotions changes them. The
// engine's access pattern is kept: min() before every pop_min().
std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenHashes {
  std::uint64_t pops = 0xcbf29ce484222325ULL;
  std::uint64_t stats = 0xcbf29ce484222325ULL;
};

std::uint64_t fold_stats(std::uint64_t h, const SchedulerStats& s) {
  h = fnv(h, s.buckets);
  h = fnv(h, static_cast<std::uint64_t>(s.bucket_width));
  h = fnv(h, s.calendar_events);
  h = fnv(h, s.overflow_events);
  h = fnv(h, s.peak_pending);
  h = fnv(h, s.resizes);
  return fnv(h, s.overflow_promotions);
}

enum class GoldenStream { ShortHorizon, SameBucketBurst, FarFutureTimers, RewindingPushes };

GoldenHashes run_golden_stream(GoldenStream kind) {
  Rng rng(0x5eed + static_cast<std::uint64_t>(kind));
  NullHandler handler;
  CalendarEventQueue q;
  GoldenHashes h;
  std::uint64_t seq = 0;
  SimTime now = 0;
  auto push = [&](SimTime when) { q.push(QueuedEvent{when, seq++, &handler, EventPayload{}}); };
  auto pop = [&] {
    const SimTime t = q.min().time;
    const QueuedEvent ev = q.pop_min();
    EXPECT_EQ(ev.time, t);
    h.pops = fnv(fnv(h.pops, static_cast<std::uint64_t>(ev.time)), ev.seq);
    now = ev.time;
  };
  for (int op = 0; op < 20000; ++op) {
    const double roll = rng.uniform_double();
    switch (kind) {
      case GoldenStream::ShortHorizon:
        if (q.empty() || roll < 0.5) push(now + static_cast<SimTime>(rng.uniform(1500)));
        else pop();
        break;
      case GoldenStream::SameBucketBurst:
        // A steady stream long enough to pass the retune cooldown, then every
        // 2000 ops a burst of 300 events at one instant (one bucket, well over
        // the 128-event serving limit), drained while the stream goes on.
        if (op % 2000 == 1999) {
          const SimTime at = now + 700;
          for (int i = 0; i < 300; ++i) push(at);
        } else if (q.empty() || roll < 0.5) {
          push(now + static_cast<SimTime>(rng.uniform(1500)));
        } else {
          pop();
        }
        break;
      case GoldenStream::FarFutureTimers:
        if (q.empty() || roll < 0.35) {
          push(now + static_cast<SimTime>(rng.uniform(1500)));
        } else if (roll < 0.5) {
          push(now + (SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(14))));
        } else {
          pop();
        }
        break;
      case GoldenStream::RewindingPushes:
        // Pushes at `now` while the minimum sits buckets ahead move the
        // serving position back (rewind).
        if (q.empty() || roll < 0.35) {
          push(now + 2000 + static_cast<SimTime>(rng.uniform(20000)));
        } else if (roll < 0.5) {
          push(now + static_cast<SimTime>(rng.uniform(4)));
        } else {
          pop();
        }
        break;
    }
    if (op % 256 == 0) h.stats = fold_stats(h.stats, q.stats());
  }
  while (!q.empty()) pop();
  h.stats = fold_stats(h.stats, q.stats());
  return h;
}

TEST(CalendarGolden, ShortHorizon) {
  const GoldenHashes h = run_golden_stream(GoldenStream::ShortHorizon);
  EXPECT_EQ(h.pops, 0xc0d14a78e06a7315ULL);
  EXPECT_EQ(h.stats, 0x401a33d9a0065254ULL);
}

TEST(CalendarGolden, SameBucketBurstPastRetuneCooldown) {
  const GoldenHashes h = run_golden_stream(GoldenStream::SameBucketBurst);
  EXPECT_EQ(h.pops, 0x775cf3e3a6e632c1ULL);
  EXPECT_EQ(h.stats, 0x61fe55ce32f8ade4ULL);
}

TEST(CalendarGolden, FarFutureTimers) {
  const GoldenHashes h = run_golden_stream(GoldenStream::FarFutureTimers);
  EXPECT_EQ(h.pops, 0x5e8e6b45eac0d1ebULL);
  EXPECT_EQ(h.stats, 0x4bd2ab97081de846ULL);
}

TEST(CalendarGolden, RewindingPushes) {
  const GoldenHashes h = run_golden_stream(GoldenStream::RewindingPushes);
  EXPECT_EQ(h.pops, 0x1e33ab85141c3454ULL);
  EXPECT_EQ(h.stats, 0x5d73dad6c42a514eULL);
}

// Pushes that bloat the located serving bucket past the retune cooldown must
// not let the next min() skip the retune check: the queue that located once
// per dispatch ran it right there, and the dispatch-gap ring decides it.
TEST(CalendarQueue, RetuneCheckRunsRightAfterPushesBloatTheServingBucket) {
  NullHandler handler;
  CalendarEventQueue q;
  std::uint64_t seq = 0;
  auto push = [&](SimTime when) { q.push(QueuedEvent{when, seq++, &handler, EventPayload{}}); };
  // 600 events 1000 ns apart grow the array to 512 buckets, and the width is
  // tuned to that spacing.
  for (int i = 0; i < 600; ++i) push(SimTime{1000} * i);
  // 300 pops at that spacing pass the cooldown without a resize (300 pending
  // stays above a quarter of the array) and without a bloated bucket.
  SimTime now = 0;
  for (int i = 0; i < 300; ++i) now = q.pop_min().time;
  // 64 events at `now`, dispatched at once: the ring now reads a zero gap,
  // but the serving bucket never held more than 128 events.
  for (int i = 0; i < 64; ++i) push(now);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(q.pop_min().time, now);
  const std::uint64_t resizes = q.stats().resizes;
  const std::size_t buckets = q.stats().buckets;
  ASSERT_EQ(buckets, 512u);
  // 130 more events into the serving bucket: no grow (size stays below twice
  // the array), but the bucket is now over the limit.
  const SimTime serving = q.min().time;
  for (int i = 0; i < 130; ++i) push(serving);
  ASSERT_EQ(q.stats().resizes, resizes);
  EXPECT_EQ(q.min().time, serving);
  EXPECT_EQ(q.stats().resizes, resizes + 1) << "the due retune was skipped";
  EXPECT_LT(q.stats().bucket_width, SimTime{1000});
}

TEST(CalendarQueue, AllSameTimePopsInSeqOrder) {
  NullHandler handler;
  CalendarEventQueue q;
  for (std::uint64_t s = 0; s < 500; ++s)
    q.push(QueuedEvent{1234, s, &handler, EventPayload{}});
  for (std::uint64_t s = 0; s < 500; ++s) {
    const QueuedEvent ev = q.pop_min();
    EXPECT_EQ(ev.time, 1234);
    EXPECT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ResizesWhenOccupancySkews) {
  NullHandler handler;
  CalendarEventQueue q;
  const std::size_t initial_buckets = q.stats().buckets;
  Rng rng(5);
  for (std::uint64_t s = 0; s < 10'000; ++s)
    q.push(QueuedEvent{static_cast<SimTime>(rng.uniform(1'000'000)), s, &handler, EventPayload{}});
  EXPECT_GT(q.stats().resizes, 0u);
  EXPECT_GT(q.stats().buckets, initial_buckets);
  EXPECT_EQ(q.stats().peak_pending, 10'000u);
  const std::uint64_t grown_resizes = q.stats().resizes;
  SimTime last = -1;
  while (!q.empty()) {
    const SimTime t = q.pop_min().time;
    EXPECT_GE(t, last);
    last = t;
  }
  // Draining shrinks the array back down.
  EXPECT_GT(q.stats().resizes, grown_resizes);
  EXPECT_EQ(q.stats().buckets, initial_buckets);
}

TEST(CalendarQueue, FarFutureEventsParkInOverflowAndPromote) {
  NullHandler handler;
  CalendarEventQueue q;
  std::uint64_t seq = 0;
  // A cluster now plus stragglers seconds away: the stragglers must sit in
  // the overflow tier, then promote as the window reaches them.
  for (int i = 0; i < 100; ++i)
    q.push(QueuedEvent{static_cast<SimTime>(10 * i), seq++, &handler, EventPayload{}});
  for (int i = 0; i < 5; ++i)
    q.push(QueuedEvent{units::kSecond + 1000 * i, seq++, &handler, EventPayload{}});
  EXPECT_GT(q.stats().overflow_events, 0u);
  SimTime last = -1;
  std::size_t popped = 0;
  while (!q.empty()) {
    const SimTime t = q.pop_min().time;
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 105u);
  EXPECT_EQ(last, units::kSecond + 4000);
  EXPECT_GT(q.stats().overflow_promotions, 0u);
  EXPECT_EQ(q.stats().overflow_events, 0u);
}

TEST(CalendarQueue, PushBeforeServingWindowRewinds) {
  NullHandler handler;
  CalendarEventQueue q;
  // Anchor the window far out, then push earlier (legal: the engine only
  // requires time >= now, and now is still 0).
  q.push(QueuedEvent{units::kSecond, 0, &handler, EventPayload{}});
  q.push(QueuedEvent{50, 1, &handler, EventPayload{}});
  q.push(QueuedEvent{units::kMillisecond, 2, &handler, EventPayload{}});
  EXPECT_EQ(q.pop_min().time, 50);
  EXPECT_EQ(q.pop_min().time, units::kMillisecond);
  EXPECT_EQ(q.pop_min().time, units::kSecond);
  EXPECT_TRUE(q.empty());
}

// Engine-level differential: a scripted self-scheduling workload runs on the
// real Engine (calendar queue) and on a reference event loop built on the
// binary heap; the dispatch traces must match exactly.
struct TraceEntry {
  SimTime time;
  std::int32_t kind;
  bool operator==(const TraceEntry&) const = default;
};

class ScriptedHandler : public EventHandler {
 public:
  ScriptedHandler(Engine& engine, std::uint64_t seed) : engine_(engine), rng_(seed) {}
  void handle_event(SimTime now, const EventPayload& payload) override {
    trace.push_back({now, payload.kind});
    react(now, payload, [this](SimTime when, EventPayload p) {
      engine_.schedule(when, this, p);
    });
  }
  // Deterministic reaction shared with the reference loop: fan out children,
  // occasional same-time events and far-future backoff timers.
  template <typename Schedule>
  void react(SimTime now, const EventPayload& payload, Schedule schedule) {
    if (payload.kind <= 0) return;
    const int children = static_cast<int>(rng_.uniform(3));
    for (int c = 0; c < children; ++c) {
      SimTime delay = static_cast<SimTime>(rng_.uniform(1500));
      if (rng_.bernoulli(0.05))
        delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng_.uniform(10));
      schedule(now + delay, EventPayload{payload.kind - 1, 0, 0, 0});
    }
  }
  std::vector<TraceEntry> trace;

 private:
  Engine& engine_;
  Rng rng_;
};

// Minimal re-implementation of the pre-calendar engine: std::priority_queue
// with (time, seq) ordering.
std::vector<TraceEntry> reference_run(std::uint64_t seed, int seeds_events) {
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue;
  std::uint64_t seq = 0;
  Rng rng(seed);
  Rng seeder(seed + 1);
  for (int i = 0; i < seeds_events; ++i) {
    const auto when = static_cast<SimTime>(seeder.uniform(5000));
    const auto kind = static_cast<std::int32_t>(1 + seeder.uniform(6));
    queue.push(QueuedEvent{when, seq++, nullptr, EventPayload{kind, 0, 0, 0}});
  }
  std::vector<TraceEntry> trace;
  while (!queue.empty()) {
    const QueuedEvent ev = queue.top();
    queue.pop();
    trace.push_back({ev.time, ev.payload.kind});
    if (ev.payload.kind <= 0) continue;
    const int children = static_cast<int>(rng.uniform(3));
    for (int c = 0; c < children; ++c) {
      SimTime delay = static_cast<SimTime>(rng.uniform(1500));
      if (rng.bernoulli(0.05))
        delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(10));
      queue.push(QueuedEvent{ev.time + delay, seq++, nullptr,
                             EventPayload{ev.payload.kind - 1, 0, 0, 0}});
    }
  }
  return trace;
}

TEST(CalendarQueue, EngineMatchesReferenceHeapLoop) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Engine engine;
    ScriptedHandler handler(engine, seed);
    Rng seeder(seed + 1);
    for (int i = 0; i < 200; ++i) {
      const auto when = static_cast<SimTime>(seeder.uniform(5000));
      const auto kind = static_cast<std::int32_t>(1 + seeder.uniform(6));
      engine.schedule(when, &handler, EventPayload{kind, 0, 0, 0});
    }
    engine.run();
    const std::vector<TraceEntry> expected = reference_run(seed, 200);
    ASSERT_EQ(handler.trace.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_TRUE(handler.trace[i] == expected[i])
          << "seed " << seed << " event " << i << ": got (" << handler.trace[i].time << ", "
          << handler.trace[i].kind << "), want (" << expected[i].time << ", " << expected[i].kind
          << ")";
  }
}

TEST(Engine, SchedulerStatsExposed) {
  Engine engine;
  NullHandler handler;
  for (int i = 0; i < 5000; ++i)
    engine.schedule(static_cast<SimTime>(i * 7), &handler, EventPayload{});
  engine.schedule(units::kSecond, &handler, EventPayload{});
  // Held by reference on purpose: scheduler_stats() returns a snapshot by
  // value, so `before` must keep describing the pre-run() queue.
  const SchedulerStats& before = engine.scheduler_stats();
  const std::size_t pending_before = engine.pending();
  EXPECT_EQ(before.calendar_events + before.overflow_events, pending_before);
  EXPECT_GT(before.resizes, 0u);
  engine.run();
  const SchedulerStats& after = engine.scheduler_stats();
  EXPECT_EQ(before.calendar_events + before.overflow_events, pending_before)
      << "the pre-run() snapshot changed with a later one";
  EXPECT_EQ(after.calendar_events, 0u);
  EXPECT_EQ(after.overflow_events, 0u);
  EXPECT_GE(after.peak_pending, 5001u);
}

}  // namespace
}  // namespace dfly
