// Flight-recorder chunk path tracing.
//
// The Network drives a ChunkPathTracer through branch-on-null hooks at four
// points of a chunk's life: injection (sampling decision), output-queue
// enqueue at each router, transmit start on each channel, and delivery/drop.
// The tracer keeps state for the *sampled* subset only. A sampled chunk is identified by the serial
// on_chunk_injected returns; the Network stows it in Chunk::trace_serial and
// passes it back at every later hook, so the tracer needs no chunk-id map.
//
// Sampling is deterministic: an error-feedback accumulator admits exactly
// round(rate * n) of any n injected chunks (±1), so a configured rate of 0.1
// really records one chunk in ten — no RNG, no long-run drift, reproducible
// across runs.
//
// One tracer at every thread count (DESIGN.md §7, §10): the tracer keeps one
// state block per engine lane, indexed by Engine::current_lane(), exactly like
// the network. Serials pack (lane << 48) | n, where n counts injections
// sampled on that lane — single-writer, and identical at any worker-thread
// count. Without shard lanes the only lane is index 0, so serials are plain
// 0,1,2,... Completed hops are appended to the recording lane's vector, the
// only store of the trace; hops() merges the lanes on demand.
//
// render_chrome_trace turns the merged hops into Chrome trace-event JSON
// (load in chrome://tracing or https://ui.perfetto.dev): one process per
// router, one thread per output port, one complete ("X") slice per hop
// occupancy of the wire, with queue depth at enqueue and the VC in args.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/chunk.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "util/units.hpp"

namespace dfly {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// One completed hop of a sampled chunk: the chunk occupied `router`'s output
/// `port` from `enqueue_time`, held the wire [start_time, end_time).
struct HopEvent {
  std::uint64_t chunk = 0;  ///< tracer-assigned serial, unique per sampled chunk
  MsgId msg = 0;
  NodeId src = -1;
  NodeId dst = -1;
  RouterId router = -1;
  std::int16_t port = -1;
  std::int8_t vc = -1;
  PortKind kind = PortKind::Terminal;
  Bytes bytes = 0;
  Bytes queue_depth = 0;  ///< output-queue bytes ahead of this chunk at enqueue
  SimTime enqueue_time = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
};

class ChunkPathTracer {
 public:
  /// Records per-hop events for `sample_rate` (in [0, 1]) of injected chunks,
  /// with one state block per lane of `engine` (which must outlive the tracer
  /// and already have its final lane count).
  ChunkPathTracer(double sample_rate, const Engine& engine);

  // --- Network hooks (call sites branch on a null tracer pointer) ---
  /// Sampling decision for a freshly injected chunk. Returns the serial to
  /// store in Chunk::trace_serial, or kNoTraceSerial if unsampled.
  std::uint64_t on_chunk_injected();
  void on_hop_enqueue(std::uint64_t serial, MsgId msg, NodeId src, NodeId dst, Bytes bytes,
                      RouterId router, int port, PortKind kind, int vc, Bytes queue_depth,
                      SimTime now);
  void on_transmit_start(std::uint64_t serial, SimTime start, SimTime end);
  /// The sampled chunk left the fabric: delivered, or dropped on a failed
  /// link (its bytes return via NIC retransmission as a new chunk).
  void on_chunk_left(std::uint64_t serial);

  /// Every completed hop: the lanes' records concatenated in lane order,
  /// then stably sorted on start_time. Each lane records in its own dispatch
  /// order, so the result is the same at any worker-thread count; with one
  /// lane it is the order the hops completed in.
  std::vector<HopEvent> hops() const;

  /// Checkpoint support (src/ckpt/): per-lane sampling accumulators,
  /// serial/counter state, half-recorded pending hops and completed hops.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  double sample_rate() const { return rate_; }
  std::uint64_t chunks_seen() const;
  std::uint64_t chunks_sampled() const;
  std::uint64_t hops_recorded() const;
  /// Sampled chunks still in the fabric (diagnostics; 0 after a clean drain).
  std::size_t live_chunks() const;

 private:
  /// Per-lane tracer state; single-writer by the owning lane's worker (or
  /// the coordinator in global context).
  struct alignas(64) Lane {
    double acc = 0;  ///< error-feedback sampling accumulator
    std::uint64_t next = 0;  ///< chunks sampled here == low bits of the next serial
    std::uint64_t seen = 0;
    /// +1 per chunk sampled here, -1 per chunk that left the fabric here; a
    /// chunk may leave on a different lane than it was sampled on, so only
    /// the sum across lanes is meaningful.
    std::int64_t live_delta = 0;
    /// Hops enqueued but not yet transmitted, by serial. Enqueue and
    /// transmit-start of one hop happen on the same lane (same output port).
    std::unordered_map<std::uint64_t, HopEvent> pending;
    std::vector<HopEvent> hops;  ///< hops completed on this lane, in dispatch order
  };

  Lane& lane() { return lanes_[static_cast<std::size_t>(engine_.current_lane())]; }

  double rate_;
  const Engine& engine_;
  std::vector<Lane> lanes_;
};

/// Renders `hops` as a Chrome trace-event JSON document ({"traceEvents": [...]}).
void render_chrome_trace(std::ostream& os, const std::vector<HopEvent>& hops);
/// Writes render_chrome_trace() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<HopEvent>& hops);

}  // namespace dfly
