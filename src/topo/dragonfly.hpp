// Cascade-style dragonfly wiring: port layout, local (row/column all-to-all)
// links, and a deterministic symmetric global-link arrangement.
//
// Port layout on every router (indices are contiguous):
//   [0, N)                terminal ports, one per attached compute node
//   [N, N+C-1)            row-local ports (one per other column in my row)
//   [N+C-1, N+C-1+R-1)    column-local ports (one per other row in my column)
//   [.., +G)              global ports
//
// Global arrangement: number each group's global ports linearly as
// i = router_in_group * G + port. Port i points at peer group peers[i % (P-1)]
// where `peers` lists the other groups in increasing order. For a pair (a,b),
// the j-th port of a pointing at b connects to the j-th port of b pointing at
// a — symmetric by construction and validated at build time.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/coordinates.hpp"
#include "util/rng.hpp"

namespace dfly {

enum class PortKind : std::uint8_t { Terminal, LocalRow, LocalCol, Global };

const char* to_string(PortKind kind);

/// One directed side of a global link.
struct GlobalLink {
  RouterId src_router;
  int src_port;  ///< absolute port index on src_router
  RouterId dst_router;
  int dst_port;
};

class DragonflyTopology {
 public:
  explicit DragonflyTopology(const TopoParams& params);

  const TopoParams& params() const { return params_; }
  const Coordinates& coords() const { return coords_; }

  int ports_per_router() const { return ports_per_router_; }
  int first_row_port() const { return params_.nodes_per_router; }
  int first_col_port() const { return first_row_port() + params_.cols - 1; }
  int first_global_port() const { return first_col_port() + params_.rows - 1; }

  PortKind port_kind(int port) const {
    assert(port >= 0 && port < ports_per_router_);
    if (port < first_row_port()) return PortKind::Terminal;
    if (port < first_col_port()) return PortKind::LocalRow;
    if (port < first_global_port()) return PortKind::LocalCol;
    return PortKind::Global;
  }

  /// Peer router of (router, port); asserts the port is not a terminal port.
  RouterId neighbor(RouterId router, int port) const;
  /// The port index on the peer router that the reverse channel uses.
  int neighbor_port(RouterId router, int port) const;

  /// Port on `from` that reaches `to`, which must share `from`'s row.
  int row_port_to(RouterId from, RouterId to) const;
  /// Port on `from` that reaches `to`, which must share `from`'s column.
  int col_port_to(RouterId from, RouterId to) const;
  /// Port for any router in the same group reachable in one local hop;
  /// returns -1 if `to` is neither in the same row nor column.
  int local_port_to(RouterId from, RouterId to) const;

  /// All *enabled* global links from group `ga` to group `gb` (directed
  /// view). Disabled links are excluded, so routing built on these lists
  /// automatically avoids faulty hardware.
  std::span<const GlobalLink> global_links(GroupId ga, GroupId gb) const;

  /// The full as-built wiring between `ga` and `gb`, including disabled
  /// links. Indices into this list are stable across enable/disable and are
  /// the link identity used by fault schedules (fault/fault.hpp).
  std::span<const GlobalLink> all_global_links(GroupId ga, GroupId gb) const;

  // --- fault injection -----------------------------------------------------
  // Links can be marked failed (both directions at once) before a simulation
  // *or while one is running*. Routing tables snapshot the link lists, so
  // after a runtime change call RoutingAlgorithm::on_topology_changed() (a
  // FaultInjector does this for you) to rebuild the affected table entries.
  // Every mutation bumps per-group-pair / per-group version counters that
  // MinimalPathTable::refresh() uses to rebuild only what changed.

  /// Disables the `index`-th enabled link between groups a and b (order as
  /// returned by global_links(a, b)). Throws std::invalid_argument if it is
  /// the last link of the pair (the pair would disconnect) or out of range.
  void disable_global_link(GroupId a, GroupId b, int index);

  /// Sets the state of the `all_index`-th as-built link between a and b
  /// (order as returned by all_global_links(a, b)), both directions at once.
  /// Returns true if the state changed, false if it was already as asked.
  /// Throws std::invalid_argument if downing it would disconnect the pair or
  /// the index is out of range.
  bool set_global_link_state(GroupId a, GroupId b, int all_index, bool up);

  /// Sets the state of the local (row/col) link between neighboring routers
  /// `u` and `v`, both directions at once. Returns true if the state changed.
  /// Throws std::invalid_argument if u and v are not local neighbors, or if
  /// downing the link would leave some router pair of the group without a
  /// minimal (<= 2 local hops) path — the same never-disconnect guard global
  /// links have.
  bool set_local_link_state(RouterId u, RouterId v, bool up);

  /// Convenience: set_local_link_state(u, v, false); no-op if already down.
  void disable_local_link(RouterId u, RouterId v) { set_local_link_state(u, v, false); }

  /// True unless the port is a global or local port whose link was disabled.
  bool port_enabled(RouterId router, int port) const;

  int disabled_global_links() const { return disabled_count_; }
  int disabled_local_links() const { return disabled_local_count_; }

  // --- change tracking (consumed by MinimalPathTable::refresh) -------------
  /// Bumped on every link-state mutation.
  std::uint64_t epoch() const { return epoch_; }
  /// Bumped (symmetrically) when a global link between a and b changes.
  std::uint64_t pair_version(GroupId a, GroupId b) const {
    return pair_version_[static_cast<std::size_t>(a) * params_.groups + b];
  }
  /// Bumped when a local link inside group g changes.
  std::uint64_t local_version(GroupId g) const { return local_version_[g]; }

  /// Total number of directed (router, port) channels, used to size metric
  /// arrays: channel id = router * ports_per_router + port.
  int total_channels() const { return params_.total_routers() * ports_per_router_; }
  int channel_id(RouterId router, int port) const { return router * ports_per_router_ + port; }
  RouterId channel_router(int channel) const { return channel / ports_per_router_; }
  int channel_port(int channel) const { return channel % ports_per_router_; }

 private:
  void build_global_links();
  /// Refilters the enabled view of pair (a, b) (both directions) from the
  /// as-built lists and the per-port disabled flags.
  void rebuild_pair(GroupId a, GroupId b);
  void bump_pair(GroupId a, GroupId b);
  /// True when every router pair of group g still has a <= 2-local-hop path
  /// over the currently enabled local links.
  bool group_two_hop_connected(GroupId g) const;
  bool local_two_hop_path(RouterId x, RouterId y) const;

  std::size_t global_flag_index(RouterId router, int port) const {
    return static_cast<std::size_t>(router) * params_.global_ports_per_router +
           (port - first_global_port());
  }

  TopoParams params_;
  Coordinates coords_;
  int ports_per_router_;
  /// Flattened per-ordered-group-pair link lists; pair (a,b) with a!=b maps to
  /// index a*groups+b. `global_links_` is the enabled view of
  /// `all_global_links_` (same canonical order, failed links filtered out).
  std::vector<std::vector<GlobalLink>> global_links_;
  std::vector<std::vector<GlobalLink>> all_global_links_;
  /// Per global port: peer router and peer port (-1 where unused).
  std::vector<RouterId> global_peer_router_;
  std::vector<int> global_peer_port_;
  /// Per global port: link failed (indexed router * gpr + local global port).
  std::vector<char> global_port_disabled_;
  /// Per channel id: local link failed (only local-port entries are used).
  std::vector<char> local_port_disabled_;
  int disabled_count_ = 0;
  int disabled_local_count_ = 0;

  std::vector<std::uint64_t> pair_version_;   ///< groups x groups
  std::vector<std::uint64_t> local_version_;  ///< per group
  std::uint64_t epoch_ = 0;
};

/// Disables a random `fraction` of each group pair's global links (never the
/// last one). Returns the number of links disabled.
int disable_random_global_links(DragonflyTopology& topo, double fraction, Rng& rng);

}  // namespace dfly
