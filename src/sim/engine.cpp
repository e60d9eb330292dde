#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ckpt/snapshot_io.hpp"
#include "prof/profiler.hpp"

namespace dfly {

namespace {
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
}  // namespace

constinit thread_local Engine::BatchCtx* Engine::tls_batch_ = nullptr;

Engine::~Engine() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
}

void Engine::enable_sharding(const ShardingOptions& opts) {
  if (sharded()) throw std::logic_error("engine: sharding already enabled");
  const Lane& global = lanes_.back();
  if (global.counter != 0 || processed_ != 0 || !global.queue.empty())
    throw std::logic_error("engine: enable_sharding requires a fresh engine");
  if (opts.shards < 1) throw std::invalid_argument("engine: shards must be >= 1");
  if (opts.lookahead < 1) throw std::invalid_argument("engine: lookahead must be >= 1");
  if (opts.threads < 1) throw std::invalid_argument("engine: threads must be >= 1");
  // Lane indices must fit the 16-bit field of the packed sequence number and
  // the 10-bit lane field of sharded chunk ids (net/chunk.hpp).
  if (opts.shards + 1 >= 1023) throw std::invalid_argument("engine: too many shards");
  lanes_ = std::vector<Lane>(static_cast<std::size_t>(opts.shards) + 1);
  lookahead_ = opts.lookahead;
  threads_ = opts.threads;
  pool_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) pool_.emplace_back([this] { worker_main(); });
}

void Engine::set_profiler(prof::Profiler* p) {
  if (p != nullptr && p->lanes() != lanes())
    throw std::invalid_argument("engine: profiler lane count must match engine lanes");
  profiler_ = p;
}

SimTime Engine::event_now() const {
  const BatchCtx* ctx = tls_batch_;
  return (ctx != nullptr && ctx->engine == this) ? ctx->now : now_;
}

std::uint64_t Engine::lane_processed(int lane) const {
  assert(lane >= 0 && lane < lanes());
  return lanes_[static_cast<std::size_t>(lane)].processed;
}

void Engine::schedule_global_to_shards(const QueuedEvent& ev) {
  const int target = ev.handler->event_shard(ev.payload);
  assert(target == EventHandler::kGlobalShard || (target >= 0 && target < global_lane()));
  Lane& to = target == EventHandler::kGlobalShard ? lanes_.back()
                                                  : lanes_[static_cast<std::size_t>(target)];
  to.queue.push(ev);
}

void Engine::schedule_in_batch(const BatchCtx& ctx, SimTime when, EventHandler* handler,
                               EventPayload payload) {
  assert(when >= ctx.now && "cannot schedule into the past");
  const int global = global_lane();
  int target = handler->event_shard(payload);
  if (target == EventHandler::kGlobalShard) target = global;
  assert(target >= 0 && target <= global);
  Lane& from = lanes_[static_cast<std::size_t>(ctx.lane)];
  const QueuedEvent ev{when, pack_seq(ctx.lane, from.counter++), handler, payload};
  if (target == ctx.lane) {
    from.queue.push(ev);  // same-lane: runs within this batch if when <= bound
  } else {
    // Cross-shard: staged in the scheduling lane's outbox, merged at the
    // barrier. The lookahead guarantees the event lands strictly after the
    // batch bound; this assert is the conservative-synchronization invariant.
    assert(when > ctx.bound && "cross-shard send violates the lookahead bound");
    from.outbox.emplace_back(target, ev);
  }
}

SimTime Engine::run() { return run_slice(kMaxTime); }

SimTime Engine::run_until(SimTime deadline) {
  run_slice(deadline);
  // Advance to the deadline only on a genuine drain: a run halted by
  // request_stop() or the event-limit watchdog must not teleport forward.
  if (pending() == 0 && !stop_requested_ && !hit_limit_ && now_ < deadline) now_ = deadline;
  return now_;
}

SimTime Engine::run_slice(SimTime deadline) {
  const int nshards = global_lane();
  Lane& global = lanes_.back();
  for (;;) {
    if (stop_requested_) break;
    SimTime tmin = kMaxTime;
    for (int i = 0; i < nshards; ++i) {
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      if (!lane.queue.empty()) tmin = std::min(tmin, lane.queue.min().time);
    }
    const SimTime tg = global.queue.empty() ? kMaxTime : global.queue.min().time;
    if (tmin == kMaxTime && tg == kMaxTime) break;  // drained
    if (std::min(tmin, tg) > deadline) break;
    // After the drain check: a run that ends exactly at the limit did not hit it.
    if (event_limit_ != 0 && processed_ >= event_limit_) {
      hit_limit_ = true;
      break;
    }
    if (tg < tmin) {
      // Dispatch exactly one global event, alone: shards are parked, so the
      // handler may touch any state, and anything it schedules lands before
      // the next batch bound is computed. No BatchCtx is installed — an
      // absent context already means "global lane at now_".
      const QueuedEvent ev = global.queue.pop_min();
      now_ = ev.time;
      global.last_time = ev.time;
      ++global.processed;
      ++processed_;
      if (profiler_ == nullptr) {
        ev.handler->handle_event(ev.time, ev.payload);
      } else {
        const std::int64_t t0 = prof::Profiler::now_ns();
        ev.handler->handle_event(ev.time, ev.payload);
        profiler_->record_dispatch(nshards, prof::Profiler::now_ns() - t0);
      }
      continue;
    }
    // Conservative batch: every shard event in [tmin, bound] is independent
    // of every other shard's events in that window (cross-shard influence
    // needs >= lookahead ns), and shard events at a given time precede global
    // events at the same time (bound includes tg). The -1 is load-bearing: a
    // cross-shard send from an event at t <= bound arrives at
    // t + lookahead >= tmin + lookahead > bound.
    const SimTime horizon =
        tmin > kMaxTime - lookahead_ ? kMaxTime : tmin + lookahead_ - 1;
    run_batch(std::min({horizon, tg, deadline}));
  }
  return now_;
}

void Engine::run_batch(SimTime bound) {
  const int nshards = static_cast<int>(lanes_.size()) - 1;
  active_.clear();
  for (int i = 0; i < nshards; ++i) {
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    if (!lane.queue.empty() && lane.queue.min().time <= bound) active_.push_back(i);
  }
  if (profiler_ != nullptr) profiler_->begin_batch(active_);
  if (threads_ == 1 || active_.size() == 1 || pool_.empty()) {
    for (const int i : active_) run_lane(i, bound);
  } else {
    batch_bound_ = bound;
    next_active_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_workers_ = 0;
      ++generation_;
    }
    cv_start_.notify_all();
    work_lanes();  // the coordinator participates
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return done_workers_ == static_cast<int>(pool_.size()); });
  }
  // The cv_done_ wait above is the happens-before edge that lets the
  // coordinator read the per-lane busy accumulators the workers just wrote.
  if (profiler_ != nullptr) profiler_->end_batch(active_);
  // Barrier: merge outboxes in lane order — a deterministic order that is
  // identical at every thread count — then let subsystems quiesce (the
  // network drains deferred cross-lane chunk frees here).
  merge_outboxes();
  if (quiesce_hook_) {
    if (profiler_ == nullptr) {
      quiesce_hook_();
    } else {
      const std::int64_t t0 = prof::Profiler::now_ns();
      quiesce_hook_();
      profiler_->add_flush(global_lane(), prof::Profiler::now_ns() - t0);
    }
  }
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.processed;
  processed_ = total;
  for (const int i : active_) now_ = std::max(now_, lanes_[static_cast<std::size_t>(i)].last_time);
}

void Engine::run_lane(int lane_idx, SimTime bound) {
  Lane& lane = lanes_[static_cast<std::size_t>(lane_idx)];
  BatchCtx ctx{this, lane_idx, bound, 0};
  tls_batch_ = &ctx;
  prof::Profiler* const p = profiler_;
  while (!lane.queue.empty() && lane.queue.min().time <= bound) {
    const QueuedEvent ev = lane.queue.pop_min();
    ctx.now = ev.time;
    lane.last_time = ev.time;
    ++lane.processed;
    if (p == nullptr) {
      ev.handler->handle_event(ev.time, ev.payload);
    } else {
      const std::int64_t t0 = prof::Profiler::now_ns();
      ev.handler->handle_event(ev.time, ev.payload);
      p->record_dispatch(lane_idx, prof::Profiler::now_ns() - t0);
    }
  }
  tls_batch_ = nullptr;
}

void Engine::work_lanes() {
  for (;;) {
    const int idx = next_active_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= static_cast<int>(active_.size())) return;
    run_lane(active_[static_cast<std::size_t>(idx)], batch_bound_);
  }
}

void Engine::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    work_lanes();
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_workers_;
    }
    cv_done_.notify_one();
  }
}

void Engine::merge_outboxes() {
  const int nshards = static_cast<int>(lanes_.size()) - 1;
  for (int i = 0; i < nshards; ++i) {
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    if (lane.outbox.empty()) continue;  // also skips the clock reads below
    std::int64_t t0 = 0;
    if (profiler_ != nullptr) t0 = prof::Profiler::now_ns();
    for (const auto& [target, ev] : lane.outbox)
      lanes_[static_cast<std::size_t>(target)].queue.push(ev);
    lane.outbox.clear();
    if (profiler_ != nullptr) profiler_->add_flush(i, prof::Profiler::now_ns() - t0);
  }
}

std::size_t Engine::pending() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.queue.size();
  return total;
}

SchedulerStats Engine::scheduler_stats() const {
  SchedulerStats total;
  for (const Lane& lane : lanes_) {
    const SchedulerStats s = lane.queue.stats();
    total.buckets += s.buckets;
    total.calendar_events += s.calendar_events;
    total.overflow_events += s.overflow_events;
    total.peak_pending += s.peak_pending;
    total.resizes += s.resizes;
    total.overflow_promotions += s.overflow_promotions;
  }
  total.bucket_width = lanes_[0].queue.stats().bucket_width;
  return total;
}

void Engine::save_state(ckpt::Writer& w,
                        const std::function<std::uint32_t(EventHandler*)>& id_of) const {
  // Per-lane state only — nothing here depends on the thread count, so a
  // snapshot taken at threads=2 resumes bit-exactly at any thread count.
  // Saves happen at quiesce points, where every outbox is empty.
  for ([[maybe_unused]] const Lane& lane : lanes_) assert(lane.outbox.empty());
  w.i64(now_);
  w.u64(processed_);
  w.u32(static_cast<std::uint32_t>(lanes_.size()));
  for (const Lane& lane : lanes_) {
    w.u64(lane.counter);
    w.u64(lane.processed);
    w.i64(lane.last_time);
    lane.queue.save_state(w, id_of);
  }
}

void Engine::load_state(ckpt::Reader& r,
                        const std::function<EventHandler*(std::uint32_t)>& handler_of) {
  assert(pending() == 0 && processed_ == 0 && "load_state requires a fresh engine");
  now_ = r.i64();
  processed_ = r.u64();
  const std::uint32_t nlanes = r.u32();
  if (nlanes != lanes_.size())
    throw std::runtime_error(
        "snapshot: engine lane count mismatch (snapshot and run must both run threads=0, "
        "or both run sharded with the same shard count)");
  std::uint64_t total = 0;
  for (Lane& lane : lanes_) {
    lane.counter = r.u64();
    lane.processed = r.u64();
    lane.last_time = r.i64();
    total += lane.processed;
    if (lane.last_time > now_)
      throw std::runtime_error("snapshot: inconsistent engine lane state");
    lane.queue.load_state(r, handler_of);
  }
  if (now_ < 0 || total != processed_)
    throw std::runtime_error("snapshot: inconsistent engine clock state");
}

}  // namespace dfly
