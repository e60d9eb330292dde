// The packet-level dragonfly network model.
//
// Network owns all routers and NICs, implements the event protocol
// (store-and-forward chunks, output-port serialization, credit-based VC flow
// control with credit-return latency) and records the four metrics of the
// study: per-channel traffic, per-channel saturation time, per-source-node
// hop statistics, and (via MessageSink) message completion times.
//
// Protocol per chunk at router i of its route:
//   1. kChunkArrive    — the chunk has fully arrived into router i's input
//                        buffer (space was reserved upstream); it joins the
//                        queue of its output port.
//   2. try_send        — when the port is idle, the first queued chunk whose
//                        VC has enough downstream credits starts transmission
//                        (skipping blocked chunks ahead of it: per-VC flow
//                        control, no head-of-line deadlock). Queue-present but
//                        nothing sendable = "buffers used up" → saturation
//                        time accrues.
//   3. on transmit end — credits for this router's input buffer return to the
//                        upstream sender (one link latency later); the chunk
//                        arrives downstream (kChunkArrive or kDeliver).
//
// Lanes (DESIGN.md §10): the network keeps one slice of its mutable
// bookkeeping per engine lane — counter block, chunk arena, deferred-free
// list and routing RNG stream — and always indexes it by the dispatching
// lane. Over an engine without shard lanes that is one slice, whose RNG is
// the master routing stream itself. enable_sharding re-partitions it per
// lane of a sharded engine: router/NIC/port state splits cleanly by
// dragonfly group, so fabric events classify to the lane of the state they
// touch, and the counter blocks are summed on read. Cross-lane chunk frees
// are deferred to the barrier. Message records are only ever allocated and
// released in global context; the message-side transitions a shard cannot
// apply directly — injection and delivery notifications and drop accounting
// — travel as events one lookahead later (kMsgInjected, kMsgDelivered,
// kDropNotify); the lookahead is 0 without shards. Remote-congestion routing
// (UGAL-G) reads fabric state along the whole path, which no group owns, so
// it cannot shard: enable_sharding rejects it, and run_experiment runs it on
// an engine without shard lanes at any thread count.
#pragma once

#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/nic.hpp"
#include "net/params.hpp"
#include "net/router.hpp"
#include "routing/algorithm.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "util/rng.hpp"

namespace dfly {

class ChunkPathTracer;

class Network : public EventHandler, public CongestionView {
 public:
  /// All referenced objects must outlive the Network. `sink` may be null.
  Network(Engine& engine, const DragonflyTopology& topo, const NetworkParams& params,
          const RoutingAlgorithm& routing, Rng rng, MessageSink* sink = nullptr);

  /// Partitions network state per engine lane (call right after
  /// Engine::enable_sharding, before any traffic): per-lane chunk arenas,
  /// counter blocks and RNG streams, and the barrier quiesce hook for
  /// deferred cross-lane frees. `lookahead` must equal the engine's (the
  /// global-link latency). Throws std::logic_error when the routing algorithm
  /// reads remote congestion (UGAL-G). A sharded engine requires this call:
  /// its first network event throws std::logic_error otherwise.
  void enable_sharding(SimTime lookahead);
  bool sharded() const { return lookahead_ > 0; }

  void set_sink(MessageSink* sink) { sink_ = sink; }

  /// Installs (or, with nullptr, removes) the flight-recorder chunk tracer
  /// (src/obs/). The tracer must outlive event processing; null (the default)
  /// keeps every hook a branch-on-null no-op.
  void set_tracer(ChunkPathTracer* tracer) { tracer_ = tracer; }

  /// Queues a message for injection at `src`'s NIC (src != dst). May be
  /// called before the simulation starts or from within event processing in
  /// global context (replay/background/fault handlers run there).
  MsgId send(NodeId src, NodeId dst, Bytes bytes, std::uint64_t user_data = 0,
             bool notify_injected = false, bool notify_delivered = false);

  // EventHandler
  void handle_event(SimTime now, const EventPayload& payload) override;
  int event_shard(const EventPayload& payload) const override;

  // CongestionView — output-queue occupancy at `router`'s `port`.
  Bytes queued_bytes(RouterId router, int port) const override;

  /// Reacts to a runtime link state change of the directed channel
  /// (router, port). On link-down the chunk currently on the wire is
  /// discarded, every chunk queued for the port is purged (input-buffer
  /// credits return upstream), and the dropped bytes are handed to the owning
  /// NICs' retransmit timers. On link-up the port resumes sending. Call once
  /// per direction after mutating the topology (FaultInjector does this —
  /// always in global context, so the synchronous accounting is safe).
  void on_link_state_changed(RouterId router, int port, bool up, SimTime now);

  /// Closes still-open saturation intervals at `end`; call once after run().
  void finalize(SimTime end);

  // --- metric access ---
  /// Read-only view of router `r`'s ports (a slice of the flat port array).
  Router router(RouterId r) const {
    return Router(&ports_[static_cast<std::size_t>(topo_.channel_id(r, 0))],
                  topo_.ports_per_router());
  }
  const Nic& nic(NodeId n) const { return nics_[n]; }
  struct HopStats {
    std::uint64_t chunks = 0;
    std::uint64_t routers_sum = 0;
    double average() const {
      return chunks ? static_cast<double>(routers_sum) / static_cast<double>(chunks) : 0.0;
    }
  };
  const HopStats& hop_stats(NodeId src) const { return hop_stats_[src]; }

  std::uint64_t chunks_forwarded() const { return sum(&LaneStats::chunks_forwarded); }
  Bytes bytes_delivered() const { return sum(&LaneStats::bytes_delivered); }
  std::size_t messages_in_flight() const { return msgs_.in_flight(); }

  // --- fault-recovery accounting ---
  Bytes bytes_injected() const { return sum(&LaneStats::bytes_injected); }
  Bytes bytes_dropped() const { return sum(&LaneStats::bytes_dropped); }
  Bytes bytes_retransmitted() const { return sum(&LaneStats::bytes_retransmitted); }
  Bytes in_fabric_bytes() const { return sum(&LaneStats::in_fabric_delta); }
  std::uint64_t chunks_dropped() const {
    return static_cast<std::uint64_t>(sum(&LaneStats::chunks_dropped));
  }
  std::uint64_t retransmit_events() const {
    return static_cast<std::uint64_t>(sum(&LaneStats::retransmit_events));
  }
  /// Chunk-conservation audit: every injected byte must be delivered,
  /// dropped (awaiting retransmission), or still in the fabric.
  bool conservation_ok() const {
    return bytes_injected() == bytes_delivered() + bytes_dropped() + in_fabric_bytes();
  }
  /// Backoff delay before retransmit attempt number `attempts`.
  SimTime retransmit_delay(int attempts) const;

  const Chunk& chunk(ChunkId id) const { return chunks_[id]; }
  const MessageRecord& message(MsgId id) const { return msgs_[id]; }
  /// Bytes queued on router output ports, per VC (diagnostics).
  std::vector<Bytes> vc_occupancy() const;

  const DragonflyTopology& topology() const { return topo_; }
  const NetworkParams& params() const { return params_; }

  /// Checkpoint support (src/ckpt/): serializes every piece of fabric state —
  /// per-port queues/credits/metrics, NIC queues and retransmit accounting,
  /// the per-lane chunk arenas and the message pool with their free lists,
  /// hop stats, the per-lane conservation counter blocks and the per-lane
  /// routing RNG streams. load_state validates structural invariants (port
  /// counts, pool indices, route lengths) and throws std::runtime_error on any
  /// mismatch; it requires a freshly constructed Network over the same
  /// topology, parameters, and lane partitioning.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  enum EventKind : std::int32_t {
    kChunkArrive = 1,    // a=chunk, b=router
    kPortFree = 2,       // b=channel
    kCreditToRouter = 3, // a=vc, b=channel, c=bytes
    kCreditToNic = 4,    // b=node, c=bytes
    kNicFree = 5,        // b=node
    kDeliver = 6,        // a=chunk
    kRetransmit = 8,     // b=msg
    // Transitions crossing from a shard into message-record territory,
    // delayed by one lookahead (0 without shards) so the conservative bound
    // holds. kDeliver completes inline without shards (no kMsgDelivered).
    kMsgInjected = 7,    // b=msg         (global lane: sink notify + release)
    kMsgDelivered = 9,   // b=msg         (global lane: sink notify + release)
    kDropNotify = 10,    // b=msg, c=bytes (source lane: message-side drop accounting)
  };

  /// Per-lane slice of the global byte/chunk counters; each block is written
  /// only by its lane's worker (or the coordinator in global context), and
  /// the public accessors sum the blocks. One block without shard lanes.
  struct alignas(64) LaneStats {
    std::uint64_t chunks_forwarded = 0;
    Bytes bytes_delivered = 0;
    Bytes bytes_injected = 0;
    Bytes bytes_dropped = 0;
    Bytes bytes_retransmitted = 0;
    /// Signed: injections (+) land on the source lane, deliveries (−) on the
    /// destination lane, so only the sum across lanes is meaningful.
    Bytes in_fabric_delta = 0;
    Bytes chunks_dropped = 0;
    Bytes retransmit_events = 0;
  };

  Bytes sum(Bytes LaneStats::* field) const {
    Bytes total = 0;
    for (const LaneStats& s : lane_stats_) total += s.*field;
    return total;
  }
  std::uint64_t sum(std::uint64_t LaneStats::* field) const {
    std::uint64_t total = 0;
    for (const LaneStats& s : lane_stats_) total += s.*field;
    return total;
  }
  /// The dispatching lane's stats block.
  LaneStats& stats() { return lane_stats_[static_cast<std::size_t>(engine_.current_lane())]; }

  /// Wire time of `bytes` on a channel of `kind`; full chunks, the common
  /// case, read a table filled at construction.
  SimTime transfer_time(Bytes bytes, PortKind kind) const {
    return bytes == params_.chunk_bytes
               ? full_chunk_time_[static_cast<int>(kind)]
               : units::transfer_time(bytes, params_.bandwidth(kind));
  }
  /// topo_.port_enabled of a channel, skipped while no link of the topology
  /// is down.
  bool link_up(int channel) const {
    return (topo_.disabled_global_links() == 0 && topo_.disabled_local_links() == 0) ||
           topo_.port_enabled(topo_.channel_router(channel), topo_.channel_port(channel));
  }
  OutPort& port(int channel) { return ports_[static_cast<std::size_t>(channel)]; }

  void try_inject(NodeId node, SimTime now);
  void try_send(int channel, SimTime now);
  void release_if_done(MsgId id);
  /// Releases a chunk back to its arena; a shard releasing another lane's
  /// chunk defers the free to the barrier (drained in lane order).
  void release_chunk(ChunkId cid);
  void drain_deferred_frees();
  /// Returns the input-buffer space a chunk occupies at its current router to
  /// the upstream sender, one upstream-link latency after `now` — when the
  /// chunk's last byte departs, or when it is dropped.
  void return_upstream_credit(const Chunk& chunk, SimTime now);
  /// Books a dropped chunk's bytes out of the fabric (lane-local part) and
  /// routes the message-side part to the source lane.
  void account_drop(ChunkId cid, SimTime now);
  /// Message-side drop accounting: rewinds m.injected, queues the bytes for
  /// retransmission. Runs on the source lane (kDropNotify) or in global
  /// context (fault purge).
  void apply_drop_to_message(MsgId id, Bytes bytes, SimTime now);
  void schedule_retransmit(MsgId id, SimTime now);

  Engine& engine_;
  const DragonflyTopology& topo_;
  NetworkParams params_;
  SimTime full_chunk_time_[4] = {};  ///< transfer_time of chunk_bytes, per PortKind
  const RoutingAlgorithm& routing_;
  MessageSink* sink_;
  ChunkPathTracer* tracer_ = nullptr;

  SimTime lookahead_ = 0;  ///< the engine's lookahead; 0 without shard lanes
  /// Per-lane routing streams: the master stream itself on one lane, its
  /// Rng::stream(lane) children once sharded.
  std::vector<Rng> lane_rngs_;
  /// deferred_frees_[l]: chunks lane l released that belong to another lane.
  std::vector<std::vector<ChunkId>> deferred_frees_;

  /// Every router's output ports, indexed by channel id
  /// (router * ports_per_router + port).
  std::vector<OutPort> ports_;
  std::vector<Nic> nics_;
  ChunkPool chunks_;
  MessagePool msgs_;
  std::vector<HopStats> hop_stats_;
  std::vector<LaneStats> lane_stats_;
};

}  // namespace dfly
