#include "topo/dragonfly.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace dfly {

const char* to_string(PortKind kind) {
  switch (kind) {
    case PortKind::Terminal: return "terminal";
    case PortKind::LocalRow: return "local-row";
    case PortKind::LocalCol: return "local-col";
    case PortKind::Global: return "global";
  }
  return "?";
}

DragonflyTopology::DragonflyTopology(const TopoParams& params)
    : params_(params), coords_(params) {
  params_.validate();
  ports_per_router_ = params_.nodes_per_router + (params_.cols - 1) + (params_.rows - 1) +
                      params_.global_ports_per_router;
  build_global_links();
  local_port_disabled_.assign(static_cast<std::size_t>(total_channels()), 0);
  pair_version_.assign(static_cast<std::size_t>(params_.groups) * params_.groups, 0);
  local_version_.assign(static_cast<std::size_t>(params_.groups), 0);
}

RouterId DragonflyTopology::neighbor(RouterId router, int port) const {
  const PortKind kind = port_kind(port);
  const RouterCoord c = coords_.coord(router);
  switch (kind) {
    case PortKind::Terminal:
      assert(false && "terminal ports have no router neighbor");
      return -1;
    case PortKind::LocalRow: {
      const int idx = port - first_row_port();          // 0..cols-2
      const int col = idx < c.col ? idx : idx + 1;      // skip own column
      return coords_.router_at(c.group, c.row, col);
    }
    case PortKind::LocalCol: {
      const int idx = port - first_col_port();          // 0..rows-2
      const int row = idx < c.row ? idx : idx + 1;      // skip own row
      return coords_.router_at(c.group, row, c.col);
    }
    case PortKind::Global: {
      const int gidx = router * params_.global_ports_per_router + (port - first_global_port());
      return global_peer_router_[gidx];
    }
  }
  return -1;
}

int DragonflyTopology::neighbor_port(RouterId router, int port) const {
  const PortKind kind = port_kind(port);
  const RouterId peer = neighbor(router, port);
  switch (kind) {
    case PortKind::Terminal:
      return -1;
    case PortKind::LocalRow:
      return row_port_to(peer, router);
    case PortKind::LocalCol:
      return col_port_to(peer, router);
    case PortKind::Global: {
      const int gidx = router * params_.global_ports_per_router + (port - first_global_port());
      return global_peer_port_[gidx];
    }
  }
  return -1;
}

int DragonflyTopology::row_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  assert(a.group == b.group && a.row == b.row && a.col != b.col);
  return first_row_port() + (b.col < a.col ? b.col : b.col - 1);
}

int DragonflyTopology::col_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  assert(a.group == b.group && a.col == b.col && a.row != b.row);
  return first_col_port() + (b.row < a.row ? b.row : b.row - 1);
}

int DragonflyTopology::local_port_to(RouterId from, RouterId to) const {
  const RouterCoord a = coords_.coord(from);
  const RouterCoord b = coords_.coord(to);
  if (a.group != b.group || from == to) return -1;
  if (a.row == b.row) return row_port_to(from, to);
  if (a.col == b.col) return col_port_to(from, to);
  return -1;
}

std::span<const GlobalLink> DragonflyTopology::global_links(GroupId ga, GroupId gb) const {
  assert(ga != gb);
  return global_links_[static_cast<std::size_t>(ga) * params_.groups + gb];
}

std::span<const GlobalLink> DragonflyTopology::all_global_links(GroupId ga, GroupId gb) const {
  assert(ga != gb);
  return all_global_links_[static_cast<std::size_t>(ga) * params_.groups + gb];
}

void DragonflyTopology::build_global_links() {
  const int groups = params_.groups;
  const int gpr = params_.global_ports_per_router;
  const int rpg = params_.routers_per_group();
  const int ports_per_group = rpg * gpr;
  const int links_per_pair = ports_per_group / (groups - 1);

  global_links_.assign(static_cast<std::size_t>(groups) * groups, {});
  global_peer_router_.assign(static_cast<std::size_t>(params_.total_routers()) * gpr, -1);
  global_peer_port_.assign(global_peer_router_.size(), -1);

  // Linear port index i of group g points at g's (i % (groups-1))-th peer
  // group (the other groups in increasing order); the
  // j-th port of g pointing at peer h pairs with the j-th port of h pointing
  // at g.
  auto ports_toward = [&](GroupId g, GroupId h) {
    std::vector<int> ports;
    ports.reserve(links_per_pair);
    const int k = h < g ? h : h - 1;  // index of h in g's peer list
    for (int i = k; i < ports_per_group; i += groups - 1) ports.push_back(i);
    return ports;
  };

  for (GroupId a = 0; a < groups; ++a) {
    for (GroupId b = a + 1; b < groups; ++b) {
      const std::vector<int> pa = ports_toward(a, b);
      const std::vector<int> pb = ports_toward(b, a);
      if (pa.size() != pb.size())
        throw std::logic_error("dragonfly global arrangement is asymmetric");
      auto& forward = global_links_[static_cast<std::size_t>(a) * groups + b];
      auto& backward = global_links_[static_cast<std::size_t>(b) * groups + a];
      for (std::size_t j = 0; j < pa.size(); ++j) {
        const RouterId ra = a * rpg + pa[j] / gpr;
        const int porta = first_global_port() + pa[j] % gpr;
        const RouterId rb = b * rpg + pb[j] / gpr;
        const int portb = first_global_port() + pb[j] % gpr;
        forward.push_back(GlobalLink{ra, porta, rb, portb});
        backward.push_back(GlobalLink{rb, portb, ra, porta});
        global_peer_router_[static_cast<std::size_t>(ra) * gpr + pa[j] % gpr] = rb;
        global_peer_port_[static_cast<std::size_t>(ra) * gpr + pa[j] % gpr] = portb;
        global_peer_router_[static_cast<std::size_t>(rb) * gpr + pb[j] % gpr] = ra;
        global_peer_port_[static_cast<std::size_t>(rb) * gpr + pb[j] % gpr] = porta;
      }
    }
  }

  // Every global port must be wired exactly once.
  for (const RouterId peer : global_peer_router_)
    if (peer < 0) throw std::logic_error("dragonfly global arrangement left a port unwired");

  all_global_links_ = global_links_;  // as-built view; never mutated again
  global_port_disabled_.assign(global_peer_router_.size(), 0);
}

void DragonflyTopology::rebuild_pair(GroupId a, GroupId b) {
  auto rebuild_one = [&](GroupId x, GroupId y) {
    const auto& all = all_global_links_[static_cast<std::size_t>(x) * params_.groups + y];
    auto& enabled = global_links_[static_cast<std::size_t>(x) * params_.groups + y];
    enabled.clear();
    for (const GlobalLink& link : all) {
      if (global_port_disabled_[global_flag_index(link.src_router, link.src_port)] == 0)
        enabled.push_back(link);
    }
  };
  rebuild_one(a, b);
  rebuild_one(b, a);
}

void DragonflyTopology::bump_pair(GroupId a, GroupId b) {
  ++pair_version_[static_cast<std::size_t>(a) * params_.groups + b];
  ++pair_version_[static_cast<std::size_t>(b) * params_.groups + a];
  ++epoch_;
}

void DragonflyTopology::disable_global_link(GroupId a, GroupId b, int index) {
  if (a == b) throw std::invalid_argument("disable_global_link: a == b");
  auto& forward = global_links_[static_cast<std::size_t>(a) * params_.groups + b];
  if (index < 0 || index >= static_cast<int>(forward.size()))
    throw std::invalid_argument("disable_global_link: index out of range");
  if (forward.size() <= 1)
    throw std::invalid_argument("disable_global_link: would disconnect the group pair");
  const GlobalLink link = forward[index];

  global_port_disabled_[global_flag_index(link.src_router, link.src_port)] = 1;
  global_port_disabled_[global_flag_index(link.dst_router, link.dst_port)] = 1;

  forward.erase(forward.begin() + index);
  auto& backward = global_links_[static_cast<std::size_t>(b) * params_.groups + a];
  for (auto it = backward.begin(); it != backward.end(); ++it) {
    if (it->src_router == link.dst_router && it->src_port == link.dst_port) {
      backward.erase(it);
      break;
    }
  }
  ++disabled_count_;
  bump_pair(a, b);
}

bool DragonflyTopology::set_global_link_state(GroupId a, GroupId b, int all_index, bool up) {
  if (a == b) throw std::invalid_argument("set_global_link_state: a == b");
  const auto& all = all_global_links_[static_cast<std::size_t>(a) * params_.groups + b];
  if (all_index < 0 || all_index >= static_cast<int>(all.size()))
    throw std::invalid_argument("set_global_link_state: index out of range");
  const GlobalLink link = all[all_index];
  const std::size_t fwd = global_flag_index(link.src_router, link.src_port);
  const std::size_t bwd = global_flag_index(link.dst_router, link.dst_port);
  const bool currently_up = global_port_disabled_[fwd] == 0;
  if (currently_up == up) return false;
  if (!up) {
    const auto& enabled = global_links_[static_cast<std::size_t>(a) * params_.groups + b];
    if (enabled.size() <= 1)
      throw std::invalid_argument("set_global_link_state: would disconnect group pair " +
                                  std::to_string(a) + "<->" + std::to_string(b));
  }
  global_port_disabled_[fwd] = up ? 0 : 1;
  global_port_disabled_[bwd] = up ? 0 : 1;
  disabled_count_ += up ? -1 : 1;
  rebuild_pair(a, b);
  bump_pair(a, b);
  return true;
}

bool DragonflyTopology::set_local_link_state(RouterId u, RouterId v, bool up) {
  const int port_uv = local_port_to(u, v);
  if (port_uv < 0)
    throw std::invalid_argument("set_local_link_state: routers " + std::to_string(u) + " and " +
                                std::to_string(v) + " are not local neighbors");
  const int port_vu = local_port_to(v, u);
  const std::size_t ch_uv = static_cast<std::size_t>(channel_id(u, port_uv));
  const std::size_t ch_vu = static_cast<std::size_t>(channel_id(v, port_vu));
  const bool currently_up = local_port_disabled_[ch_uv] == 0;
  if (currently_up == up) return false;
  local_port_disabled_[ch_uv] = up ? 0 : 1;
  local_port_disabled_[ch_vu] = up ? 0 : 1;
  const GroupId g = coords_.coord(u).group;
  if (!up && !group_two_hop_connected(g)) {
    local_port_disabled_[ch_uv] = 0;  // revert: the guard failed
    local_port_disabled_[ch_vu] = 0;
    throw std::invalid_argument(
        "set_local_link_state: downing link " + std::to_string(u) + "<->" + std::to_string(v) +
        " would leave group " + std::to_string(g) + " without minimal local paths");
  }
  disabled_local_count_ += up ? -1 : 1;
  ++local_version_[g];
  ++epoch_;
  return true;
}

bool DragonflyTopology::local_two_hop_path(RouterId x, RouterId y) const {
  // Direct hop?
  const int direct = local_port_to(x, y);
  if (direct >= 0 && local_port_disabled_[channel_id(x, direct)] == 0) return true;
  // Two hops via some mid router m with enabled x->m and m->y links. The
  // candidate mids are exactly the routers local to both x and y.
  const RouterCoord cx = coords_.coord(x);
  const RouterCoord cy = coords_.coord(y);
  auto hop_ok = [&](RouterId from, RouterId to) {
    const int p = local_port_to(from, to);
    return p >= 0 && local_port_disabled_[channel_id(from, p)] == 0;
  };
  if (cx.row == cy.row) {
    // A mid must neighbor both endpoints; for a same-row pair that means the
    // other columns of the shared row (a column neighbor of x never shares
    // y's row or column).
    for (int col = 0; col < params_.cols; ++col) {
      if (col == cx.col || col == cy.col) continue;
      const RouterId m = coords_.router_at(cx.group, cx.row, col);
      if (hop_ok(x, m) && hop_ok(m, y)) return true;
    }
    return false;
  }
  if (cx.col == cy.col) {
    for (int row = 0; row < params_.rows; ++row) {
      if (row == cx.row || row == cy.row) continue;
      const RouterId m = coords_.router_at(cx.group, row, cx.col);
      if (hop_ok(x, m) && hop_ok(m, y)) return true;
    }
    return false;
  }
  // Different row and column: the only 2-hop mids are the two intersections.
  const RouterId m1 = coords_.router_at(cx.group, cx.row, cy.col);
  const RouterId m2 = coords_.router_at(cx.group, cy.row, cx.col);
  return (hop_ok(x, m1) && hop_ok(m1, y)) || (hop_ok(x, m2) && hop_ok(m2, y));
}

bool DragonflyTopology::group_two_hop_connected(GroupId g) const {
  const int rpg = params_.routers_per_group();
  const RouterId base = g * rpg;
  for (int i = 0; i < rpg; ++i) {
    for (int j = i + 1; j < rpg; ++j) {
      if (!local_two_hop_path(base + i, base + j)) return false;
    }
  }
  return true;
}

bool DragonflyTopology::port_enabled(RouterId router, int port) const {
  switch (port_kind(port)) {
    case PortKind::Terminal:
      return true;
    case PortKind::LocalRow:
    case PortKind::LocalCol:
      return local_port_disabled_[channel_id(router, port)] == 0;
    case PortKind::Global:
      return global_port_disabled_[global_flag_index(router, port)] == 0;
  }
  return true;
}

int disable_random_global_links(DragonflyTopology& topo, double fraction, Rng& rng) {
  if (fraction < 0 || fraction >= 1)
    throw std::invalid_argument("disable_random_global_links: fraction must be in [0, 1)");
  int disabled = 0;
  const int groups = topo.params().groups;
  for (GroupId a = 0; a < groups; ++a) {
    for (GroupId b = a + 1; b < groups; ++b) {
      const auto initial = static_cast<int>(topo.global_links(a, b).size());
      const int target = static_cast<int>(fraction * initial);
      for (int k = 0; k < target && static_cast<int>(topo.global_links(a, b).size()) > 1; ++k) {
        const auto remaining = static_cast<std::uint64_t>(topo.global_links(a, b).size());
        topo.disable_global_link(a, b, static_cast<int>(rng.uniform(remaining)));
        ++disabled;
      }
    }
  }
  return disabled;
}

}  // namespace dfly
