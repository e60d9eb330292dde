// Table-driven minimal-path helper for the Cascade dragonfly.
//
// Every per-chunk routing decision reads three tables and no coordinate
// arithmetic:
//   * a shared in-group local-port table (rpg x rpg, int16): the port on
//     in-group router i that reaches in-group router j, -1 unless they share
//     a row or column. Pure wiring, identical in every group and independent
//     of link state;
//   * a per-group local-hop table (rpg x rpg, int8 per group): the minimal
//     number of local hops between two routers of the group over the enabled
//     local links (1 when the direct link is up, else 2 — the topology's
//     connectivity guard never lets it exceed 2);
//   * compact per-group-pair link records (in-group source router, source
//     port, in-group landing router), in the topology's enabled-link stream
//     order, plus for every (router, peer group) three index lists into them:
//     the links whose source router is 0, 1 and 2 local hops away, each in
//     stream order.
// An inter-group minimal path picks the global link minimising
// src_hops + 1 + dst_hops by walking those buckets; ties are broken by
// reservoir sampling over the stream, so the RNG draw sequence is part of
// the table's contract (DESIGN.md §13).
//
// When links fail or recover at runtime, refresh() rebuilds what the change
// invalidated, driven by the topology's version counters: a local-link change
// in group g rebuilds g's local-hop table and g's buckets; a global-link
// change between a and b rebuilds that pair's records and buckets. Faulted and
// healthy topologies read the same tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "routing/route.hpp"
#include "topo/dragonfly.hpp"
#include "util/rng.hpp"

namespace dfly {

class MinimalPathTable {
 public:
  /// Throws std::invalid_argument if the topology's routers per group, ports
  /// per router or links per group pair do not fit the tables' 16-bit fields.
  explicit MinimalPathTable(const DragonflyTopology& topo);

  /// Appends the router-level minimal path from `from` to `to` (inclusive of
  /// departure hops, exclusive of the ejection hop). Ties are broken uniformly
  /// at random. No-op when from == to.
  void append_minimal(Route& route, RouterId from, RouterId to, Rng& rng) const;

  /// Router-router hop count of a minimal path (0 when from == to).
  int min_hops(RouterId from, RouterId to) const;

  /// Rebuilds the entries invalidated by topology link-state changes since
  /// construction or the previous refresh. O(1) when nothing changed.
  void refresh();

  const DragonflyTopology& topology() const { return topo_; }

 private:
  /// One directed global link of a group pair, in in-group coordinates.
  struct LinkRecord {
    std::int16_t src;       ///< in-group index of the source router
    std::int16_t src_port;  ///< global port on the source router
    std::int16_t dst;       ///< in-group index of the landing router
  };

  std::size_t pair_index(GroupId a, GroupId b) const {
    return static_cast<std::size_t>(a) * groups_ + b;
  }
  /// Row `i` of group g's local-hop table (symmetric: row i = column i).
  const std::int8_t* hops_row(GroupId g, int i) const {
    return &local_hops_[(static_cast<std::size_t>(g) * rpg_ + i) * rpg_];
  }
  int port(int i, int j) const { return local_port_[static_cast<std::size_t>(i) * rpg_ + j]; }
  /// Enabled links of the ordered pair (a, b), in stream order.
  const LinkRecord* records(GroupId a, GroupId b) const {
    return &records_[pair_index(a, b) * pair_links_];
  }
  /// Bucket entry of (router, peer group): the ends of buckets 0, 1 and 2,
  /// then the record indices of the three buckets back to back.
  const std::uint16_t* entry(RouterId router, GroupId peer) const {
    return &buckets_[(static_cast<std::size_t>(router) * groups_ + peer) * (3 + pair_links_)];
  }

  void rebuild_local_hops(GroupId g);
  void rebuild_pair(GroupId a, GroupId b);
  void rebuild_buckets(RouterId router, GroupId peer);
  /// Appends the minimal local path between in-group routers i and j of g.
  void append_local(Route& route, GroupId g, int i, int j, Rng& rng) const;
  /// Intermediate router of a 2-hop local path while some local link of the
  /// topology is down (the rare path, kept out of append_local).
  int faulted_mid(GroupId g, int i, int j, Rng& rng) const;

  const DragonflyTopology& topo_;
  int groups_;
  int rpg_;         ///< routers per group
  int cols_;
  int pair_links_;  ///< as-built links per ordered group pair
  std::vector<GroupId> group_of_;         ///< per router
  std::vector<std::int16_t> row_, col_;   ///< per in-group index
  std::vector<std::int16_t> local_port_;  ///< rpg x rpg, shared by all groups
  std::vector<std::int8_t> local_hops_;   ///< groups x rpg x rpg
  /// groups x groups slots of pair_links_ records; the enabled links of a
  /// pair fill the front of its slot.
  std::vector<LinkRecord> records_;
  /// routers x groups entries of 3 + pair_links_ (see entry()). Fixed-size
  /// slots let a refresh rewrite one entry without moving the others.
  std::vector<std::uint16_t> buckets_;

  // Topology versions this table was built against (see refresh()).
  std::uint64_t epoch_seen_ = 0;
  std::vector<std::uint64_t> pair_seen_;   ///< groups x groups
  std::vector<std::uint64_t> local_seen_;  ///< per group
};

}  // namespace dfly
