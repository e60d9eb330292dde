// Per-channel router state: output ports with chunk queues, per-VC credit
// counters for the downstream input buffer, and the per-channel metrics the
// study reports (traffic bytes, saturation time).
//
// Ports are passive state; the Network event handler drives them. The
// network keeps every port of every router in one array indexed by channel id
// (router * ports_per_router + port); Router is a read-only view of one
// router's slice of it. A chunk enqueued on an output port physically
// occupies this router's input buffer — that space was reserved (as credits)
// by the upstream sender and is returned when the chunk departs.
#pragma once

#include <array>
#include <cstdint>

#include "net/chunk.hpp"
#include "routing/route.hpp"
#include "topo/dragonfly.hpp"
#include "util/ring_fifo.hpp"
#include "util/units.hpp"

namespace dfly {

/// Free space in the downstream input buffer, one counter per VC, stored
/// inline. Holds no VCs on terminal (ejection) ports: the node sink always
/// accepts.
class VcCredits {
 public:
  void assign(int vcs, Bytes bytes) {
    vcs_ = static_cast<std::int8_t>(vcs);
    for (int vc = 0; vc < vcs; ++vc) bytes_[static_cast<std::size_t>(vc)] = bytes;
  }
  Bytes& operator[](int vc) { return bytes_[static_cast<std::size_t>(vc)]; }
  Bytes operator[](int vc) const { return bytes_[static_cast<std::size_t>(vc)]; }
  std::size_t size() const { return static_cast<std::size_t>(vcs_); }
  Bytes* begin() { return bytes_.data(); }
  Bytes* end() { return bytes_.data() + vcs_; }
  const Bytes* begin() const { return bytes_.data(); }
  const Bytes* end() const { return bytes_.data() + vcs_; }

 private:
  std::array<Bytes, kMaxRouteHops> bytes_{};
  std::int8_t vcs_ = 0;
};

struct OutPort {
  PortKind kind = PortKind::Terminal;
  SimTime busy_until = 0;
  RingFifo<ChunkId> queue;  ///< chunks awaiting this channel, FIFO arrival order
  Bytes queued_bytes = 0;
  VcCredits credits;
  /// Last VC granted the channel (Arbitration::RoundRobinVc state).
  std::int8_t last_vc_served = -1;
  /// Chunk currently on the wire (kNoChunk when idle) and the VC whose
  /// downstream credits it reserved — needed to abort a transmission when the
  /// link fails mid-flight.
  ChunkId tx_chunk = kNoChunk;
  std::int8_t tx_vc = 0;

  // --- metrics ---
  Bytes traffic = 0;             ///< bytes transmitted on this channel
  SimTime blocked_since = -1;    ///< start of the current buffers-exhausted interval
  SimTime saturated_time = 0;    ///< paper's "link saturation time"

  bool is_terminal() const { return kind == PortKind::Terminal; }

  void begin_blocked(SimTime now) {
    if (blocked_since < 0) blocked_since = now;
  }
  void end_blocked(SimTime now) {
    if (blocked_since >= 0) {
      saturated_time += now - blocked_since;
      blocked_since = -1;
    }
  }
};

/// Read-only view of one router's ports in the network's channel-indexed
/// port array (Network::router).
class Router {
 public:
  Router(const OutPort* ports, int num_ports) : ports_(ports), num_ports_(num_ports) {}

  const OutPort& port(int p) const { return ports_[p]; }
  int num_ports() const { return num_ports_; }

 private:
  const OutPort* ports_;
  int num_ports_;
};

}  // namespace dfly
