// Unit tests for the discrete-event engine.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dfly {
namespace {

class Recorder : public EventHandler {
 public:
  void handle_event(SimTime now, const EventPayload& payload) override {
    times.push_back(now);
    kinds.push_back(payload.kind);
  }
  std::vector<SimTime> times;
  std::vector<std::int32_t> kinds;
};

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, DeliversEventsInTimeOrder) {
  Engine engine;
  Recorder rec;
  engine.schedule(30, &rec, EventPayload{3, 0, 0, 0});
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(20, &rec, EventPayload{2, 0, 0, 0});
  engine.run();
  EXPECT_EQ(rec.kinds, (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  Recorder rec;
  for (std::int32_t k = 0; k < 50; ++k) engine.schedule(5, &rec, EventPayload{k, 0, 0, 0});
  engine.run();
  for (std::int32_t k = 0; k < 50; ++k) EXPECT_EQ(rec.kinds[k], k);
}

TEST(Engine, ScheduleAfterIsRelativeToNow) {
  Engine engine;
  struct Chainer : EventHandler {
    Engine* eng;
    std::vector<SimTime> seen;
    void handle_event(SimTime now, const EventPayload& payload) override {
      seen.push_back(now);
      if (payload.kind < 3) eng->schedule_after(7, this, EventPayload{payload.kind + 1, 0, 0, 0});
    }
  } chain;
  chain.eng = &engine;
  engine.schedule(100, &chain, EventPayload{1, 0, 0, 0});
  engine.run();
  EXPECT_EQ(chain.seen, (std::vector<SimTime>{100, 107, 114}));
}

TEST(Engine, RunUntilStopsAtDeadlineAndKeepsLaterEvents) {
  Engine engine;
  Recorder rec;
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(50, &rec, EventPayload{2, 0, 0, 0});
  engine.run_until(20);
  EXPECT_EQ(rec.kinds.size(), 1u);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(rec.kinds.size(), 2u);
  EXPECT_EQ(engine.now(), 50);
}

TEST(Engine, RunUntilAdvancesTimeWhenQueueEmpty) {
  Engine engine;
  engine.run_until(42);
  EXPECT_EQ(engine.now(), 42);
}

TEST(Engine, RunSliceHoldsClockAtLastEventOnDrain) {
  // Unlike run_until, run_slice never teleports to the deadline: a run fully
  // consumed in slices ends at the same now() as run() — checkpoint slicing
  // relies on this for bit-exact resume.
  Engine engine;
  Recorder rec;
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(30, &rec, EventPayload{2, 0, 0, 0});
  engine.run_slice(20);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_slice(100);
  EXPECT_EQ(engine.now(), 30);  // queue drained; clock stays at the last event
  engine.run_slice(200);
  EXPECT_EQ(engine.now(), 30);  // empty-queue slices do not move time at all
}

TEST(Engine, EventLimitActsAsWatchdog) {
  Engine engine;
  struct Loop : EventHandler {
    Engine* eng;
    void handle_event(SimTime, const EventPayload&) override {
      eng->schedule_after(1, this, EventPayload{});
    }
  } loop;
  loop.eng = &engine;
  engine.set_event_limit(1000);
  engine.schedule(0, &loop, EventPayload{});
  engine.run();
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.events_processed(), 1000u);
}

TEST(Engine, EventLimitIsAnAbsoluteBoundAndResettingClearsTheHit) {
  Engine engine;
  Recorder rec;
  for (SimTime t = 1; t <= 3; ++t) engine.schedule(t, &rec, EventPayload{});
  engine.set_event_limit(1);
  engine.run();
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.events_processed(), 1u);
  // The bound counts events_processed(), not events since the call.
  engine.set_event_limit(2);
  EXPECT_FALSE(engine.hit_event_limit());
  engine.run();
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.events_processed(), 2u);
  engine.set_event_limit(0);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_FALSE(engine.hit_event_limit());
}

TEST(Engine, RequestStopHaltsRunAndKeepsPendingEvents) {
  Engine engine;
  struct Stopper : EventHandler {
    Engine* eng;
    int seen = 0;
    void handle_event(SimTime, const EventPayload&) override {
      if (++seen == 3) eng->request_stop();
      eng->schedule_after(1, this, EventPayload{});
    }
  } stopper;
  stopper.eng = &engine;
  engine.schedule(0, &stopper, EventPayload{});
  engine.run();
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_EQ(stopper.seen, 3);     // no event is processed after the stop request
  EXPECT_EQ(engine.pending(), 1u);  // the queue is left intact for inspection
  EXPECT_FALSE(engine.hit_event_limit());
}

TEST(Engine, RunUntilDoesNotTeleportToDeadlineAfterStop) {
  // Regression: a run halted by request_stop() used to advance now() to the
  // deadline whenever the queue happened to be empty.
  Engine engine;
  struct Stopper : EventHandler {
    Engine* eng;
    void handle_event(SimTime, const EventPayload&) override { eng->request_stop(); }
  } stopper;
  stopper.eng = &engine;
  engine.schedule(10, &stopper, EventPayload{});
  engine.run_until(100);
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_EQ(engine.now(), 10);  // stopped simulations stay where they stopped
}

TEST(Engine, RunUntilDoesNotTeleportToDeadlineAfterEventLimit) {
  Engine engine;
  Recorder rec;
  engine.set_event_limit(1);
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(20, &rec, EventPayload{2, 0, 0, 0});
  engine.run_until(100);
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, RunUntilOnStoppedEngineWithEmptyQueueHoldsTime) {
  Engine engine;
  engine.request_stop();
  engine.run_until(42);
  EXPECT_EQ(engine.now(), 0);
}

TEST(Engine, ZeroDelaySelfScheduleRunsAtSameTime) {
  Engine engine;
  Recorder rec;
  engine.schedule(5, &rec, EventPayload{1, 0, 0, 0});
  engine.run();
  engine.schedule_after(0, &rec, EventPayload{2, 0, 0, 0});
  engine.run();
  EXPECT_EQ(rec.times, (std::vector<SimTime>{5, 5}));
}

}  // namespace
}  // namespace dfly
