// Discrete-event simulation engine: one dispatch path over one or more
// lanes — a global lane, plus (optionally) one shard lane per dragonfly group
// run in parallel under conservative (lookahead-based) synchronization.
//
// Design notes:
//  * Events carry a small POD payload and a handler pointer; dispatch is one
//    virtual call into the owning subsystem, which switches on `kind`. This
//    avoids a std::function allocation per event — the simulator schedules
//    tens of millions of events per experiment.
//  * Ties in time are broken by a sequence number that embeds the scheduling
//    lane and a per-lane counter, so execution order (and therefore every
//    simulation result) is fully deterministic for a given seed.
//  * Every lane's pending-event set lives in a calendar queue
//    (sim/event_queue.hpp): O(1) amortised scheduling for the near-monotonic
//    event stream, with a heap-backed overflow tier for far-future timers.
//  * The global lane always exists. It runs handlers that touch cross-group
//    state, one event at a time, with every shard parked. enable_sharding adds
//    one shard lane per dragonfly group — a private calendar queue, sequence
//    counter and outbox — and shard lanes run in parallel inside
//    lookahead-bounded batches. The dispatch order per lane is a pure function
//    of the configuration, so a run with threads=N is bit-identical to the
//    threads=1 run of the same sharded configuration (DESIGN.md §10).
//  * threads=0 (the default, no enable_sharding call) is the same engine with
//    zero shard lanes: every event runs alone on the global lane, and since
//    the global lane's sequence numbers are its plain counter, dispatch order
//    is strictly (time, schedule order).
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace dfly {

namespace prof {
class Profiler;
}  // namespace prof

/// Configuration for the sharded parallel engine (DESIGN.md §10).
struct ShardingOptions {
  int shards = 0;         ///< shard lanes; one per dragonfly group
  SimTime lookahead = 0;  ///< conservative bound: min cross-shard latency (ns)
  int threads = 1;        ///< worker threads incl. the coordinator (>= 1)
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds the shard lanes. Must be called on a fresh engine (no events
  /// scheduled, nothing processed). Spawns threads-1 helper workers;
  /// threads=1 runs the same sharded semantics serially and is the
  /// byte-equality oracle for threads>=2.
  void enable_sharding(const ShardingOptions& opts);
  /// True when the engine has shard lanes (enable_sharding was called).
  bool sharded() const { return lanes_.size() > 1; }

  /// Lane count: shards + 1 (the global lane). Subsystems size their per-lane
  /// state (counters, RNG streams, chunk arenas) from this.
  int lanes() const { return static_cast<int>(lanes_.size()); }
  /// Index of the global lane (== shard count; 0 without shards).
  int global_lane() const { return static_cast<int>(lanes_.size()) - 1; }
  /// The shard lane whose event is currently dispatching on this thread; the
  /// global lane everywhere else (setup, global handlers). Inline: the
  /// network indexes its per-lane state with it on every event.
  int current_lane() const {
    const BatchCtx* ctx = tls_batch_;
    return ctx != nullptr && ctx->engine == this ? ctx->lane : global_lane();
  }
  /// Events dispatched by one lane (used by the bench's load-balance model).
  std::uint64_t lane_processed(int lane) const;

  /// Invoked by the coordinator at every safe-time barrier (after the shard
  /// outboxes merge, before the next batch). The network drains its deferred
  /// cross-lane chunk frees here, in deterministic lane order.
  void set_quiesce_hook(std::function<void()> hook) { quiesce_hook_ = std::move(hook); }

  /// Attaches a wall-clock profiler (src/prof/, DESIGN.md §11): dispatch
  /// times, per-lane busy/barrier-wait/flush phases. The profiler's lane
  /// count must match lanes(); nullptr detaches. Pure observability — the
  /// hooks read the monotonic clock and write profiler-owned accumulators
  /// only, so attaching one never changes simulation behaviour.
  void set_profiler(prof::Profiler* p);
  prof::Profiler* profiler() const { return profiler_; }

  /// Schedules `payload` for delivery to `handler` at absolute time `when`.
  /// `when` must not precede the current time. With shard lanes the event is
  /// routed to handler->event_shard(payload)'s lane (without them the handler
  /// is never asked); cross-shard sends from a shard must land strictly after
  /// the current batch bound (guaranteed by the lookahead = the global-link
  /// latency).
  /// Inline, with the calendar push inlined into it: the network schedules
  /// about three events per chunk hop. Only shard lanes leave the fast path.
  void schedule(SimTime when, EventHandler* handler, EventPayload payload) {
    assert(handler != nullptr);
    const BatchCtx* ctx = tls_batch_;
    if (ctx == nullptr || ctx->engine != this) {
      // Global context (setup, or a global event running alone with every
      // shard parked): the event may go straight into any lane's queue.
      assert(when >= now_ && "cannot schedule into the past");
      Lane& from = lanes_.back();
      const QueuedEvent ev{when, pack_seq(global_lane(), from.counter++), handler, payload};
      if (lanes_.size() == 1) {
        from.queue.push(ev);
      } else {
        schedule_global_to_shards(ev);
      }
      return;
    }
    schedule_in_batch(*ctx, when, handler, payload);
  }

  /// Convenience: schedule relative to the dispatching event's time.
  void schedule_after(SimTime delay, EventHandler* handler, EventPayload payload) {
    schedule(event_now() + delay, handler, payload);
  }

  /// Runs until no events remain. Returns the final simulation time.
  SimTime run();

  /// Runs until the queue drains or time would exceed `deadline`; events at
  /// t > deadline stay queued. Returns current time.
  SimTime run_until(SimTime deadline);

  /// Like run_until(), but never advances now() past the last dispatched
  /// event, even when the queue drains. A run fully consumed through
  /// run_slice() calls therefore ends at exactly the same now() as one
  /// consumed by run() — checkpoint slicing depends on this for bit-exact
  /// resume (time-normalized outputs read the final clock).
  SimTime run_slice(SimTime deadline);

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const;

  /// Aborts run() once events_processed() reaches `limit` (0 = unlimited);
  /// used as a deadlock/livelock watchdog. The bound is absolute, not a count
  /// of further events, so a run resumed from a checkpoint (which restores
  /// events_processed()) stops where the uninterrupted run would. Setting a
  /// limit clears hit_event_limit(). The limit is checked before every global
  /// event and every shard batch, so with shard lanes the overshoot is
  /// deterministic but may exceed the limit by up to one batch.
  void set_event_limit(std::uint64_t limit) {
    event_limit_ = limit;
    hit_limit_ = false;
  }
  bool hit_event_limit() const { return hit_limit_; }

  /// Makes run()/run_until() return before dispatching any further event.
  /// Callable from inside an event handler (the HealthMonitor uses this to
  /// halt a stalled simulation while its state is still inspectable). A shard
  /// lane's request is honoured at the next batch boundary.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Occupancy and resize counters of the calendar scheduler (reported by
  /// HealthMonitor and metrics/), summed across lanes; a snapshot by value.
  SchedulerStats scheduler_stats() const;

  /// Checkpoint support (src/ckpt/): serializes the clock, the processed
  /// count and, per lane, the sequence counter, processed count and complete
  /// pending-event set. Nothing saved depends on the thread count, so a run
  /// checkpointed at threads=2 resumes bit-exactly at threads=4 (or 1); a
  /// snapshot only loads into an engine with the same lane count, so one
  /// taken at threads=0 and one taken with shards never cross. Handlers are
  /// mapped to stable small ids by `id_of` / `handler_of` (the checkpoint
  /// layer owns the registry). load_state requires a freshly constructed (but
  /// possibly already sharding-enabled) engine. Saves are only taken at
  /// quiesce points (run_slice boundaries), where every outbox is empty.
  void save_state(ckpt::Writer& w,
                  const std::function<std::uint32_t(EventHandler*)>& id_of) const;
  void load_state(ckpt::Reader& r,
                  const std::function<EventHandler*(std::uint32_t)>& handler_of);

 private:
  /// One logical process: a dragonfly group's private queue + counters, or
  /// the global lane (index == shard count). alignas keeps lanes on separate
  /// cache lines — each is written by exactly one worker per batch.
  struct alignas(64) Lane {
    CalendarEventQueue queue;
    std::uint64_t counter = 0;    ///< events scheduled BY this lane
    std::uint64_t processed = 0;  ///< events dispatched ON this lane
    SimTime last_time = 0;        ///< time of this lane's last dispatched event
    /// Cross-shard sends staged during a batch, released at the barrier.
    std::vector<std::pair<int, QueuedEvent>> outbox;
  };

  /// Per-thread dispatch context, live while a worker executes one shard lane
  /// of one batch. Global events run without one: no context means the
  /// global lane at now_.
  struct BatchCtx {
    Engine* engine;
    int lane;
    SimTime bound;  ///< batch safe-time bound
    SimTime now;    ///< time of the event currently dispatching
  };
  /// constinit: other translation units read it without a TLS init wrapper.
  static constinit thread_local BatchCtx* tls_batch_;

  /// schedule() from global context with shard lanes: the handler picks the
  /// target lane.
  void schedule_global_to_shards(const QueuedEvent& ev);
  /// schedule() from a shard lane inside a batch.
  void schedule_in_batch(const BatchCtx& ctx, SimTime when, EventHandler* handler,
                         EventPayload payload);
  void run_batch(SimTime bound);
  void run_lane(int lane, SimTime bound);
  void work_lanes();
  void worker_main();
  void merge_outboxes();
  SimTime event_now() const;

  static std::uint64_t pack_seq(int lane, std::uint64_t counter) {
    return (static_cast<std::uint64_t>(lane) << 48) | counter;
  }

  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool hit_limit_ = false;
  bool stop_requested_ = false;
  prof::Profiler* profiler_ = nullptr;

  std::vector<Lane> lanes_ = std::vector<Lane>(1);  ///< shards + 1 (last = global lane)

  // --- shard state (idle without shard lanes) ---
  SimTime lookahead_ = 0;
  int threads_ = 1;
  std::function<void()> quiesce_hook_;
  std::vector<int> active_;  ///< lane indices participating in this batch
  SimTime batch_bound_ = 0;
  // Worker pool: threads_-1 helpers; condvar generation start, atomic lane
  // grab, condvar done-count. threads_=1 touches none of this.
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int done_workers_ = 0;
  bool shutdown_ = false;
  std::atomic<int> next_active_{0};
};

}  // namespace dfly
