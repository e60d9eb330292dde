// Unit and property tests for minimal / Valiant / adaptive routing.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {
namespace {

/// Congestion oracle for tests: everything idle.
class IdleCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId, int) const override { return 0; }
};

/// Congestion oracle reporting a fixed queue on one channel.
class HotChannel : public CongestionView {
 public:
  HotChannel(RouterId router, int port, Bytes queued)
      : router_(router), port_(port), queued_(queued) {}
  Bytes queued_bytes(RouterId router, int port) const override {
    return (router == router_ && port == port_) ? queued_ : 0;
  }

 private:
  RouterId router_;
  int port_;
  Bytes queued_;
};

/// Validates that a route is physically well-formed: starts at src's router,
/// every hop's port leads to the next hop's router, the last hop ejects at
/// dst's terminal port, and VCs strictly increase.
void expect_valid_route(const DragonflyTopology& topo, const Route& route, NodeId src,
                        NodeId dst) {
  const Coordinates& c = topo.coords();
  ASSERT_GT(route.size(), 0);
  ASSERT_LE(route.size(), kMaxRouteHops);
  EXPECT_EQ(route.first().router, c.router_of_node(src));
  for (int i = 0; i < route.size(); ++i) {
    const Hop& hop = route[i];
    EXPECT_EQ(hop.vc, i) << "VCs must escalate with hop index";
    if (i + 1 < route.size()) {
      EXPECT_NE(topo.port_kind(hop.port), PortKind::Terminal);
      EXPECT_EQ(topo.neighbor(hop.router, hop.port), route[i + 1].router)
          << "hop " << i << " does not lead to the next router";
    } else {
      EXPECT_EQ(topo.port_kind(hop.port), PortKind::Terminal);
      EXPECT_EQ(hop.router, c.router_of_node(dst));
      EXPECT_EQ(hop.port, c.slot_of_node(dst));
    }
  }
}

class RoutingProperty : public ::testing::TestWithParam<TopoParams> {
 protected:
  void SetUp() override { topo_.emplace(GetParam()); }
  std::optional<DragonflyTopology> topo_;
};

TEST_P(RoutingProperty, MinimalRoutesAreValidForRandomPairs) {
  MinimalRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(1);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
    // Minimal inter-group path: <= 2 local + global + <= 2 local + eject.
    EXPECT_LE(route.size(), 6);
  }
}

TEST_P(RoutingProperty, MinimalRouteLengthMatchesMinHops) {
  MinimalRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(2);
  const Coordinates& c = topo_->coords();
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    const int expected = routing.table().min_hops(c.router_of_node(src), c.router_of_node(dst));
    EXPECT_EQ(route.size(), expected + 1) << "route must be minimal (+1 ejection hop)";
  }
}

TEST_P(RoutingProperty, ValiantRoutesAreValidForRandomPairs) {
  ValiantRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(3);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
  }
}

TEST_P(RoutingProperty, AdaptiveRoutesAreValidForRandomPairs) {
  AdaptiveRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(4);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
  }
}

TEST_P(RoutingProperty, AdaptivePicksMinimalOnIdleNetwork) {
  AdaptiveRouting adaptive(*topo_);
  MinimalRouting minimal(*topo_);
  IdleCongestion idle;
  Rng rng(5);
  const Coordinates& c = topo_->coords();
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = adaptive.compute(src, dst, idle, rng);
    const int min_len =
        minimal.table().min_hops(c.router_of_node(src), c.router_of_node(dst)) + 1;
    EXPECT_EQ(route.size(), min_len) << "idle network must yield a minimal route";
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, RoutingProperty,
                         ::testing::Values(TopoParams::tiny(), TopoParams::theta()),
                         [](const auto& pinfo) {
                           return pinfo.param.groups == 3 ? std::string("tiny")
                                                          : std::string("theta");
                         });

TEST(MinimalRouting, SameRouterPairIsEjectOnly) {
  const DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(6);
  // Nodes 0 and 1 share router 0 in the tiny config.
  const Route route = routing.compute(0, 1, idle, rng);
  ASSERT_EQ(route.size(), 1);
  EXPECT_EQ(route[0].router, 0);
  EXPECT_EQ(topo.port_kind(route[0].port), PortKind::Terminal);
}

TEST(MinimalRouting, SameRowIsOneLocalHop) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(7);
  // Router 0 and router 1 share row 0 of group 0; first node on each.
  const Route route = routing.compute(0, 1 * 4, idle, rng);
  ASSERT_EQ(route.size(), 2);
  EXPECT_EQ(topo.port_kind(route[0].port), PortKind::LocalRow);
  EXPECT_EQ(route[1].router, 1);
}

TEST(MinimalRouting, DiagonalIntraGroupIsTwoLocalHops) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(8);
  const Coordinates& c = topo.coords();
  const RouterId r_dst = c.router_at(0, 3, 7);  // different row and column from router 0
  const Route route = routing.compute(0, c.node_of(r_dst, 0), idle, rng);
  ASSERT_EQ(route.size(), 3);
  // Intermediate router must share row or col with both endpoints.
  const RouterId mid = route[1].router;
  const RouterCoord mc = c.coord(mid);
  EXPECT_TRUE((mc.row == 0 && mc.col == 7) || (mc.row == 3 && mc.col == 0));
}

TEST(MinimalRouting, IntersectionTieBreaksUseBothCandidates) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(9);
  const Coordinates& c = topo.coords();
  const RouterId r_dst = c.router_at(0, 3, 7);
  std::set<RouterId> mids;
  for (int i = 0; i < 50; ++i) {
    const Route route = routing.compute(0, c.node_of(r_dst, 0), idle, rng);
    mids.insert(route[1].router);
  }
  EXPECT_EQ(mids.size(), 2u) << "both row/col intersections should be sampled";
}

TEST(MinimalRouting, InterGroupRouteCrossesExactlyOneGlobalLink) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(10);
  const Coordinates& c = topo.coords();
  Rng pick(99);
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(pick.uniform(topo.params().total_nodes()));
    auto dst = static_cast<NodeId>(pick.uniform(topo.params().total_nodes()));
    if (c.group_of_node(src) == c.group_of_node(dst)) continue;
    const Route route = routing.compute(src, dst, idle, rng);
    int globals = 0;
    for (int h = 0; h < route.size(); ++h)
      if (topo.port_kind(route[h].port) == PortKind::Global) ++globals;
    EXPECT_EQ(globals, 1);
  }
}

TEST(ValiantRouting, IntermediateAvoidsEndpointRouters) {
  const DragonflyTopology topo(TopoParams::tiny());
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const RouterId via = pick_valiant_intermediate(topo, 3, 17, rng);
    EXPECT_NE(via, 3);
    EXPECT_NE(via, 17);
    EXPECT_LT(via, topo.params().total_routers());
  }
}

TEST(AdaptiveRouting, AvoidsCongestedMinimalFirstHop) {
  const DragonflyTopology topo(TopoParams::theta());
  AdaptiveRouting adaptive(topo);
  MinimalRouting minimal(topo);
  IdleCongestion idle;
  Rng rng(12);
  // Find the minimal first-hop channel for a same-row pair, then congest it
  // heavily; adaptive must route around it (different first hop or longer
  // path).
  const NodeId src = 0, dst = 3 * 4;  // router 0 -> router 3, same row
  const Route min_route = minimal.compute(src, dst, idle, rng);
  const HotChannel hot(min_route.first().router, min_route.first().port,
                       64 * units::kMiB);
  int avoided = 0;
  for (int i = 0; i < 50; ++i) {
    const Route route = adaptive.compute(src, dst, hot, rng);
    if (!(route.first().router == min_route.first().router &&
          route.first().port == min_route.first().port))
      ++avoided;
  }
  EXPECT_GT(avoided, 40) << "adaptive should usually dodge a hot first hop";
}

// ---------------------------------------------------------------------------
// Draw-sequence golden test. Every routing kind's RNG draw sequence is part of
// the artifact contract: a route that differs, or the same route reached with
// a different number of draws, shifts every later decision of the run and so
// every simulated output. These hashes pin 20k compute() results, the final
// RNG state and the adaptive decision telemetry per (kind, topology, link
// state); a pure speed-up of the routing code must leave all of them as is.

/// Deterministic, uneven queue depths (0-6 KiB, many exact ties) so that the
/// adaptive scorers see both clear winners and tie-breaks.
class SkewedCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId router, int port) const override {
    std::uint64_t h = static_cast<std::uint64_t>(router) * 0x9E3779B1u ^
                      static_cast<std::uint64_t>(port) * 0x85EBCA77u;
    h ^= h >> 15;
    return static_cast<Bytes>(h % 7) * 1024;
  }
};

enum class LinkState { Healthy, GlobalDown, LocalDown, LocalRecovered };

class Fnv64 {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TopoParams perfbench_topology() {
  TopoParams p = TopoParams::theta();
  p.groups = 5;
  p.rows = 2;
  p.cols = 8;
  p.global_ports_per_router = 1;
  return p;
}

std::uint64_t draw_sequence_hash(RoutingKind kind, const TopoParams& params, LinkState state) {
  constexpr int kCalls = 20000;
  DragonflyTopology topo(params);
  const std::unique_ptr<RoutingAlgorithm> routing = make_routing(kind, topo);
  RoutingTelemetry telemetry;
  routing->set_telemetry(&telemetry);
  const Coordinates& c = topo.coords();
  const RouterId u = c.router_at(0, 0, 0), v = c.router_at(0, 0, 1);
  if (state == LinkState::GlobalDown) {
    topo.disable_global_link(0, 1, 0);
    routing->on_topology_changed();
  } else if (state != LinkState::Healthy) {
    topo.set_local_link_state(u, v, false);
    routing->on_topology_changed();
  }
  const SkewedCongestion congestion;
  Rng rng(0xd1f);
  Rng pick(0x5eed);
  Fnv64 hash;
  const int nodes = params.total_nodes();
  for (int i = 0; i < kCalls; ++i) {
    if (state == LinkState::LocalRecovered && i == kCalls / 2) {
      topo.set_local_link_state(u, v, true);
      routing->on_topology_changed();
    }
    const auto src = static_cast<NodeId>(pick.uniform(nodes));
    auto dst = static_cast<NodeId>(pick.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing->compute(src, dst, congestion, rng);
    hash.add(static_cast<std::uint64_t>(route.size()));
    for (int h = 0; h < route.size(); ++h)
      hash.add(static_cast<std::uint64_t>(route[h].router) << 16 |
               static_cast<std::uint64_t>(route[h].port) << 8 |
               static_cast<std::uint64_t>(route[h].vc));
  }
  for (const std::uint64_t word : rng.state()) hash.add(word);
  for (const RouteDecisionStats& d : telemetry.per_source()) {
    hash.add(d.minimal);
    hash.add(d.nonminimal);
    hash.add(d.winning_score_sum);
    hash.add(d.minimal_score_sum);
    hash.add(d.nonminimal_score_sum);
  }
  return hash.value();
}

TEST(RoutingGolden, DrawSequenceIsPinned) {
  struct Topo {
    const char* name;
    TopoParams params;
  };
  const std::array<Topo, 3> topos{{{"tiny", TopoParams::tiny()},
                                   {"perfbench", perfbench_topology()},
                                   {"theta", TopoParams::theta()}}};
  const std::array<RoutingKind, 4> kinds{RoutingKind::Minimal, RoutingKind::Adaptive,
                                         RoutingKind::Valiant, RoutingKind::AdaptiveGlobal};
  const std::array<LinkState, 4> states{LinkState::Healthy, LinkState::GlobalDown,
                                        LinkState::LocalDown, LinkState::LocalRecovered};
  const char* const state_names[] = {"healthy", "global-down", "local-down", "local-recovered"};
  // Recorded before the table-driven routing rewrite; indexed
  // [kind][topology][link state] in the order of the arrays above.
  constexpr std::uint64_t kExpected[4][3][4] = {
      {  // min
       {0x9ad6d157504b8182ULL, 0x1f24765a1cc6fcdfULL,
        0x2002293b6751b092ULL, 0x145a6a0bccc65006ULL},
       {0x97718481e98a3edaULL, 0xd655935edc67a6b7ULL,
        0x3c7a036014b43208ULL, 0x03be7eb04fcd6bcdULL},
       {0x1de650089b7107f0ULL, 0xaaba2f0a652c7b86ULL,
        0x9666cb46f0001f6aULL, 0xbfaf845b8e43d54bULL},
      },
      {  // adp
       {0x4952e028a7a0995cULL, 0x82f5fe1c7383080cULL,
        0x3b5a54e2a08cd7c0ULL, 0x26d1680b1ed15deeULL},
       {0x2488e57ccae460e8ULL, 0xb3cdb2abea3199faULL,
        0x33bf73bfd0752df3ULL, 0xe46fdb4317f51276ULL},
       {0x7371d1eaad676537ULL, 0x5ba77b87b298634cULL,
        0x2fd30198c21d0e98ULL, 0x00827c48670309dcULL},
      },
      {  // val
       {0x4ccdfac4aeff507aULL, 0xe205634843d5a0abULL,
        0x6e13a08c04517077ULL, 0xb2bbb0da9fa43152ULL},
       {0x8e2963511cd93adfULL, 0xce30d173a59d2d57ULL,
        0x2525697ea2991647ULL, 0x1390ba194b93e862ULL},
       {0x94d29788ebb940ecULL, 0x82949420aaf8fcfcULL,
        0x00cbfe762eaf1725ULL, 0xa5f75532a6bbfc58ULL},
      },
      {  // adpg
       {0x8e4dd729596bdeb2ULL, 0x290ec7e6fb4af6b0ULL,
        0x272ed3870fb701fbULL, 0xb35b90f76383454cULL},
       {0x16aef65d70ee9d05ULL, 0x3c967de20dd075a0ULL,
        0xe76a360dee8ec1ebULL, 0x94faf8b0e81f004aULL},
       {0x30e6eb53fec769b4ULL, 0x644e7476175ddc99ULL,
        0x70ddb849b4338418ULL, 0x430b090933f5d872ULL},
      },
  };
  for (std::size_t k = 0; k < kinds.size(); ++k)
    for (std::size_t t = 0; t < topos.size(); ++t)
      for (std::size_t s = 0; s < states.size(); ++s)
        EXPECT_EQ(draw_sequence_hash(kinds[k], topos[t].params, states[s]), kExpected[k][t][s])
            << to_string(kinds[k]) << " / " << topos[t].name << " / " << state_names[s];
}

TEST(RoutingFactory, NamesAndKinds) {
  const DragonflyTopology topo(TopoParams::tiny());
  EXPECT_EQ(make_routing(RoutingKind::Minimal, topo)->name(), "minimal");
  EXPECT_EQ(make_routing(RoutingKind::Adaptive, topo)->name(), "adaptive");
  EXPECT_EQ(make_routing(RoutingKind::Valiant, topo)->name(), "valiant");
  EXPECT_STREQ(to_string(RoutingKind::Minimal), "min");
  EXPECT_STREQ(to_string(RoutingKind::Adaptive), "adp");
}

}  // namespace
}  // namespace dfly
