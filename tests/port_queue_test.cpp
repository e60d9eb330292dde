// Network-level tests of the ring-buffer port and NIC queues: round-robin
// arbitration picking from the middle of a wrapped port queue, and a
// checkpoint taken while port and NIC queues are wrapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot_io.hpp"
#include "net/network.hpp"
#include "replay/replay.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::vector<ChunkId>> port_queues(const Network& network) {
  std::vector<std::vector<ChunkId>> out;
  const DragonflyTopology& topo = network.topology();
  for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
    const Router& router = network.router(r);
    for (int p = 0; p < router.num_ports(); ++p) {
      const auto& queue = router.port(p).queue;
      std::vector<ChunkId> ids;
      for (std::size_t i = 0; i < queue.size(); ++i) ids.push_back(queue[i]);
      out.push_back(std::move(ids));
    }
  }
  return out;
}

bool any_port_wrapped(const Network& network, std::size_t min_size) {
  const DragonflyTopology& topo = network.topology();
  for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
    const Router& router = network.router(r);
    for (int p = 0; p < router.num_ports(); ++p) {
      const auto& queue = router.port(p).queue;
      if (queue.wrapped() && queue.size() >= min_size) return true;
    }
  }
  return false;
}

/// Dispatches exactly one more event.
void step(Engine& engine) {
  engine.set_event_limit(engine.events_processed() + 1);
  engine.run();
}

// True when `after` is `before` with one element removed strictly inside it
// (not its front, not its back), possibly followed by one new arrival.
bool removed_from_middle(const std::vector<ChunkId>& before, const std::vector<ChunkId>& after) {
  if (before.size() < 3 || (after.size() != before.size() - 1 && after.size() != before.size()))
    return false;
  std::size_t i = 0;
  while (i < after.size() && i < before.size() && after[i] == before[i]) ++i;
  if (i == 0 || i + 1 >= before.size()) return false;
  for (std::size_t k = i + 1; k < before.size(); ++k)
    if (after[k - 1] != before[k]) return false;
  return true;
}

// The arbitration test's heavy permutation under RoundRobinVc, stepped one
// event at a time until the round-robin pick leaves a wrapped port queue from
// its middle, then run to the end. The outcome hash was recorded with the
// std::deque port queues the ring buffer replaced.
TEST(PortQueue, RoundRobinPicksFromTheMiddleOfAWrappedQueue) {
  Engine engine;
  const DragonflyTopology topo(TopoParams::tiny());
  NetworkParams params = NetworkParams::theta();
  params.arbitration = Arbitration::RoundRobinVc;
  const AdaptiveRouting routing(topo);
  Network network(engine, topo, params, routing, Rng(1));
  Rng rng(2);
  const Trace trace = make_permutation_trace(40, 512 * units::kKiB, rng);
  Rng place_rng(3);
  const Placement placement =
      make_placement(PlacementKind::RandomNode, topo.params(), 40, place_rng);
  ReplayEngine replay(engine, network, trace, placement);
  replay.start();

  bool middle_pick = false;
  while (!middle_pick && engine.pending() > 0) {
    const std::vector<std::vector<ChunkId>> before = port_queues(network);
    std::vector<bool> was_wrapped;
    for (RouterId r = 0; r < topo.params().total_routers(); ++r)
      for (int p = 0; p < network.router(r).num_ports(); ++p)
        was_wrapped.push_back(network.router(r).port(p).queue.wrapped());
    step(engine);
    const std::vector<std::vector<ChunkId>> after = port_queues(network);
    for (std::size_t c = 0; c < before.size(); ++c)
      if (was_wrapped[c] && removed_from_middle(before[c], after[c])) middle_pick = true;
  }
  ASSERT_TRUE(middle_pick) << "no round-robin pick from the middle of a wrapped queue";

  engine.set_event_limit(0);
  engine.run();
  ASSERT_EQ(engine.pending(), 0u);
  ASSERT_TRUE(replay.finished());
  network.finalize(engine.now());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, static_cast<std::uint64_t>(engine.now()));
  h = fnv(h, engine.events_processed());
  for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
    const Router& router = network.router(r);
    for (int p = 0; p < router.num_ports(); ++p) {
      h = fnv(h, static_cast<std::uint64_t>(router.port(p).traffic));
      h = fnv(h, static_cast<std::uint64_t>(router.port(p).saturated_time));
    }
  }
  EXPECT_EQ(engine.now(), 146611);
  EXPECT_EQ(engine.events_processed(), 113255u);
  EXPECT_EQ(h, 0xee0e5d2ac6877674ULL);
}

struct Recorder : MessageSink {
  std::vector<std::pair<std::uint64_t, SimTime>> delivered;
  void on_message_injected(MsgId, std::uint64_t, SimTime) override {}
  void on_message_delivered(MsgId, std::uint64_t user, SimTime now) override {
    delivered.emplace_back(user, now);
  }
};

/// A network on the tiny machine whose only event handler is the network.
struct Fabric {
  Engine engine;
  const DragonflyTopology topo{TopoParams::tiny()};
  const MinimalRouting routing{topo};
  Recorder rec;
  Network network{engine, topo, NetworkParams::theta(), routing, Rng(9), &rec};

  std::string save() const {
    ckpt::Writer w;
    engine.save_state(w, [](EventHandler*) { return std::uint32_t{0}; });
    network.save_state(w);
    return w.buffer();
  }
  void load(const std::string& state) {
    ckpt::Reader r(state);
    engine.load_state(r, [this](std::uint32_t) -> EventHandler* { return &network; });
    network.load_state(r);
    r.expect_end();
  }
};

// Fan-in to node 1 keeps its ejection port queue busy while chunks enter and
// leave it; node 0 queues five messages, and once two have left its NIC five
// more, so its NIC queue wraps. The snapshot is taken while both are wrapped:
// it must restore to the same bytes and continue exactly like the original.
TEST(PortQueue, CheckpointWithWrappedPortAndNicQueuesRoundTrips) {
  Fabric original;
  const int nodes = original.topo.params().total_nodes();
  for (NodeId src = 2; src < nodes; ++src)
    original.network.send(src, 1, 48 * units::kKiB, static_cast<std::uint64_t>(src), false, true);
  std::uint64_t user = 1000;
  for (int i = 0; i < 5; ++i)
    original.network.send(0, 2 + i, 6 * units::kKiB, user++, false, true);

  bool refilled = false;
  while (original.engine.pending() > 0) {
    step(original.engine);
    const auto& nic_queue = original.network.nic(0).queue;
    if (!refilled && nic_queue.size() == 3) {
      for (int i = 0; i < 5; ++i)
        original.network.send(0, 7 + i, 6 * units::kKiB, user++, false, true);
      refilled = true;
    }
    if (refilled && nic_queue.wrapped() && nic_queue.size() >= 2 &&
        any_port_wrapped(original.network, 2))
      break;
  }
  ASSERT_TRUE(refilled);
  ASSERT_TRUE(original.network.nic(0).queue.wrapped()) << "NIC queue never wrapped";
  ASSERT_TRUE(any_port_wrapped(original.network, 2)) << "no port queue wrapped";

  const std::string snapshot = original.save();
  Fabric resumed;
  resumed.load(snapshot);
  EXPECT_EQ(resumed.save(), snapshot) << "restore does not reproduce the snapshot";

  const std::size_t delivered_before = original.rec.delivered.size();
  original.engine.set_event_limit(0);
  original.engine.run();
  resumed.engine.run();
  ASSERT_EQ(original.network.bytes_delivered(), original.network.bytes_injected());
  EXPECT_EQ(original.engine.now(), resumed.engine.now());
  const std::vector<std::pair<std::uint64_t, SimTime>> tail(
      original.rec.delivered.begin() + static_cast<std::ptrdiff_t>(delivered_before),
      original.rec.delivered.end());
  EXPECT_EQ(tail, resumed.rec.delivered);
  EXPECT_EQ(original.save(), resumed.save()) << "runs diverged after the restore";
}

}  // namespace
}  // namespace dfly
