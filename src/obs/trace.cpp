#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "ckpt/snapshot_io.hpp"
#include "obs/json.hpp"

namespace dfly {

namespace {

// Serial layout; mirrors the engine's event-sequence packing.
constexpr int kSerialLaneShift = 48;

}  // namespace

ChunkPathTracer::ChunkPathTracer(double sample_rate, const Engine& engine)
    : rate_(sample_rate),
      engine_(engine),
      lanes_(static_cast<std::size_t>(engine.lanes())) {
  if (!(sample_rate >= 0.0 && sample_rate <= 1.0))
    throw std::invalid_argument("chunk tracer: sample_rate must be in [0, 1]");
}

std::uint64_t ChunkPathTracer::on_chunk_injected() {
  Lane& l = lane();
  ++l.seen;
  l.acc += rate_;
  if (l.acc < 1.0) return kNoTraceSerial;
  l.acc -= 1.0;
  ++l.live_delta;
  return l.next++ | static_cast<std::uint64_t>(engine_.current_lane()) << kSerialLaneShift;
}

void ChunkPathTracer::on_hop_enqueue(std::uint64_t serial, MsgId msg, NodeId src, NodeId dst,
                                     Bytes bytes, RouterId router, int port, PortKind kind,
                                     int vc, Bytes queue_depth, SimTime now) {
  HopEvent hop;
  hop.chunk = serial;
  hop.msg = msg;
  hop.src = src;
  hop.dst = dst;
  hop.router = router;
  hop.port = static_cast<std::int16_t>(port);
  hop.vc = static_cast<std::int8_t>(vc);
  hop.kind = kind;
  hop.bytes = bytes;
  hop.queue_depth = queue_depth;
  hop.enqueue_time = now;
  lane().pending[serial] = hop;
}

void ChunkPathTracer::on_transmit_start(std::uint64_t serial, SimTime start, SimTime end) {
  Lane& l = lane();
  const auto it = l.pending.find(serial);
  if (it == l.pending.end()) return;
  HopEvent& hop = l.hops.emplace_back(it->second);
  l.pending.erase(it);
  hop.start_time = start;
  hop.end_time = end;
}

void ChunkPathTracer::on_chunk_left(std::uint64_t serial) {
  Lane& l = lane();
  // Discard a half-recorded hop (enqueued, never transmitted): the chunk died
  // in a queue. Drops from global context (fault purges) may close a chunk
  // whose pending hop lives on another lane — safe to reach into, every
  // shard is parked then.
  if (l.pending.erase(serial) == 0 && engine_.current_lane() == engine_.global_lane()) {
    for (Lane& other : lanes_) other.pending.erase(serial);
  }
  --l.live_delta;
}

std::vector<HopEvent> ChunkPathTracer::hops() const {
  std::vector<HopEvent> all;
  all.reserve(hops_recorded());
  for (const Lane& l : lanes_) all.insert(all.end(), l.hops.begin(), l.hops.end());
  std::stable_sort(all.begin(), all.end(), [](const HopEvent& a, const HopEvent& b) {
    return a.start_time < b.start_time;
  });
  return all;
}

std::uint64_t ChunkPathTracer::chunks_seen() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.seen;
  return n;
}

std::uint64_t ChunkPathTracer::chunks_sampled() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.next;
  return n;
}

std::uint64_t ChunkPathTracer::hops_recorded() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.hops.size();
  return n;
}

std::size_t ChunkPathTracer::live_chunks() const {
  std::int64_t n = 0;
  for (const Lane& l : lanes_) n += l.live_delta;
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

namespace {

void save_hop(ckpt::Writer& w, const HopEvent& hop) {
  w.u64(hop.chunk);
  w.u32(hop.msg);
  w.i32(hop.src);
  w.i32(hop.dst);
  w.i32(hop.router);
  w.i32(hop.port);
  w.i32(hop.vc);
  w.u8(static_cast<std::uint8_t>(hop.kind));
  w.i64(hop.bytes);
  w.i64(hop.queue_depth);
  w.i64(hop.enqueue_time);
  w.i64(hop.start_time);
  w.i64(hop.end_time);
}

/// Serialized size of one HopEvent, for Reader::count plausibility caps.
constexpr std::size_t kHopBytes = 8 + 4 + 4 * 5 + 1 + 8 * 5;
// Pin the frame arithmetic to the field layout save_hop/load_hop actually
// write: u64 chunk + u32 msg + i32 x {src,dst,router,port,vc} + u8 kind +
// i64 x {bytes,queue_depth,enqueue,start,end}. If a field is added the sum
// breaks here instead of as a corrupt-looking snapshot at resume time.
static_assert(std::is_trivially_copyable_v<HopEvent>,
              "HopEvent is snapshot-framed and must stay trivially copyable");
static_assert(kHopBytes == sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                               5 * sizeof(std::int32_t) + sizeof(std::uint8_t) +
                               5 * sizeof(std::int64_t),
              "kHopBytes must match the save_hop field framing");

HopEvent load_hop(ckpt::Reader& r) {
  HopEvent hop;
  hop.chunk = r.u64();
  hop.msg = r.u32();
  hop.src = r.i32();
  hop.dst = r.i32();
  hop.router = r.i32();
  hop.port = static_cast<std::int16_t>(r.i32());
  hop.vc = static_cast<std::int8_t>(r.i32());
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(PortKind::Global))
    throw std::runtime_error("snapshot: invalid port kind in hop record");
  hop.kind = static_cast<PortKind>(kind);
  hop.bytes = r.i64();
  hop.queue_depth = r.i64();
  hop.enqueue_time = r.i64();
  hop.start_time = r.i64();
  hop.end_time = r.i64();
  return hop;
}

}  // namespace

void ChunkPathTracer::save_state(ckpt::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(lanes_.size()));
  for (const Lane& l : lanes_) {
    w.f64(l.acc);
    w.u64(l.next);
    w.u64(l.seen);
    w.i64(l.live_delta);
    // Sort by serial so the snapshot bytes don't depend on hash-map order.
    std::vector<std::uint64_t> serials;
    serials.reserve(l.pending.size());
    // dfly-lint: allow(unordered-iter) reason=collects keys only; sorted below before any byte is written
    for (const auto& [serial, hop] : l.pending) serials.push_back(serial);
    std::sort(serials.begin(), serials.end());
    w.size(serials.size());
    for (const std::uint64_t serial : serials) save_hop(w, l.pending.at(serial));
    w.size(l.hops.size());
    for (const HopEvent& hop : l.hops) save_hop(w, hop);
  }
}

void ChunkPathTracer::load_state(ckpt::Reader& r) {
  const std::uint32_t nlanes = r.u32();
  if (nlanes != lanes_.size())
    throw std::runtime_error("snapshot: tracer lane count mismatch (serial vs sharded)");
  for (Lane& l : lanes_) {
    l.acc = r.f64();
    l.next = r.u64();
    l.seen = r.u64();
    l.live_delta = r.i64();
    if (!(l.acc >= 0.0 && l.acc < 1.0))
      throw std::runtime_error("snapshot: tracer sampling accumulator out of range");
    const std::size_t npending = r.count(kHopBytes);
    l.pending.clear();
    l.pending.reserve(npending);
    for (std::size_t i = 0; i < npending; ++i) {
      HopEvent hop = load_hop(r);
      if (!l.pending.emplace(hop.chunk, hop).second)
        throw std::runtime_error("snapshot: duplicate pending hop serial");
    }
    const std::size_t nhops = r.count(kHopBytes);
    l.hops.clear();
    l.hops.reserve(nhops);
    for (std::size_t i = 0; i < nhops; ++i) l.hops.push_back(load_hop(r));
  }
}

namespace {

double to_us(SimTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

void render_chrome_trace(std::ostream& os, const std::vector<HopEvent>& hops) {
  obs::JsonWriter w(os, 1);
  w.begin_object();
  w.field("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.begin_array();

  // Track metadata: one "process" per router, one "thread" per output port,
  // named so Perfetto shows "router 12 / port 3 (local-row)".
  std::map<RouterId, std::map<int, PortKind>> tracks;
  for (const HopEvent& hop : hops) tracks[hop.router][hop.port] = hop.kind;
  for (const auto& [router, ports] : tracks) {
    w.begin_object();
    w.field("ph", "M").field("name", "process_name").field("pid", std::int64_t{router});
    w.key("args").begin_object();
    w.field("name", "router " + std::to_string(router));
    w.end_object();
    w.end_object();
    for (const auto& [port, kind] : ports) {
      w.begin_object();
      w.field("ph", "M").field("name", "thread_name").field("pid", std::int64_t{router});
      w.field("tid", std::int64_t{port});
      w.key("args").begin_object();
      w.field("name", "port " + std::to_string(port) + " (" + to_string(kind) + ")");
      w.end_object();
      w.end_object();
    }
  }

  for (const HopEvent& hop : hops) {
    w.begin_object();
    w.field("ph", "X");
    w.field("name", "m" + std::to_string(hop.msg) + "/c" + std::to_string(hop.chunk));
    w.field("cat", to_string(hop.kind));
    w.field("pid", std::int64_t{hop.router});
    w.field("tid", std::int64_t{hop.port});
    w.field("ts", to_us(hop.start_time));
    w.field("dur", to_us(hop.end_time - hop.start_time));
    w.key("args").begin_object();
    w.field("msg", std::int64_t{hop.msg});
    w.field("chunk", static_cast<std::int64_t>(hop.chunk));
    w.field("src_node", std::int64_t{hop.src});
    w.field("dst_node", std::int64_t{hop.dst});
    w.field("vc", std::int64_t{hop.vc});
    w.field("bytes", hop.bytes);
    w.field("queue_depth_bytes", hop.queue_depth);
    w.field("queue_wait_ns", hop.start_time - hop.enqueue_time);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_chrome_trace(const std::string& path, const std::vector<HopEvent>& hops) {
  std::ofstream f(path);
  if (!f) return false;
  render_chrome_trace(f, hops);
  return static_cast<bool>(f);
}

}  // namespace dfly
