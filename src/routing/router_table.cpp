#include "routing/router_table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace dfly {

MinimalPathTable::MinimalPathTable(const DragonflyTopology& topo)
    : topo_(topo),
      groups_(topo.params().groups),
      rpg_(topo.params().routers_per_group()),
      cols_(topo.params().cols),
      pair_links_(topo.params().global_ports_per_group() / (topo.params().groups - 1)) {
  const TopoParams& p = topo_.params();
  if (rpg_ > std::numeric_limits<std::int16_t>::max() ||
      topo_.ports_per_router() > std::numeric_limits<std::int16_t>::max() ||
      pair_links_ > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("MinimalPathTable: topology exceeds the 16-bit table fields");

  group_of_.resize(static_cast<std::size_t>(p.total_routers()));
  for (RouterId r = 0; r < p.total_routers(); ++r) group_of_[r] = r / rpg_;
  row_.resize(static_cast<std::size_t>(rpg_));
  col_.resize(static_cast<std::size_t>(rpg_));
  local_port_.resize(static_cast<std::size_t>(rpg_) * rpg_);
  for (int i = 0; i < rpg_; ++i) {
    row_[i] = static_cast<std::int16_t>(i / cols_);
    col_[i] = static_cast<std::int16_t>(i % cols_);
    // Group 0's routers have ids 0..rpg-1; the wiring repeats in every group.
    for (int j = 0; j < rpg_; ++j)
      local_port_[static_cast<std::size_t>(i) * rpg_ + j] =
          static_cast<std::int16_t>(topo_.local_port_to(i, j));
  }

  const std::size_t pairs = static_cast<std::size_t>(groups_) * groups_;
  local_hops_.resize(static_cast<std::size_t>(groups_) * rpg_ * rpg_);
  records_.resize(pairs * pair_links_);
  buckets_.resize(static_cast<std::size_t>(p.total_routers()) * groups_ * (3 + pair_links_));
  pair_seen_.resize(pairs);
  local_seen_.resize(static_cast<std::size_t>(groups_));
  for (GroupId g = 0; g < groups_; ++g) {
    local_seen_[g] = topo_.local_version(g);
    rebuild_local_hops(g);
  }
  for (GroupId a = 0; a < groups_; ++a) {
    for (GroupId b = 0; b < groups_; ++b) {
      pair_seen_[pair_index(a, b)] = topo_.pair_version(a, b);
      if (a != b) rebuild_pair(a, b);
    }
  }
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    for (GroupId peer = 0; peer < groups_; ++peer)
      if (peer != group_of_[r]) rebuild_buckets(r, peer);
  }
  epoch_seen_ = topo_.epoch();
}

void MinimalPathTable::rebuild_local_hops(GroupId g) {
  const RouterId base = g * rpg_;
  for (int i = 0; i < rpg_; ++i) {
    std::int8_t* row = &local_hops_[(static_cast<std::size_t>(g) * rpg_ + i) * rpg_];
    for (int j = 0; j < rpg_; ++j) {
      const int pt = port(i, j);
      // Both directions of a local link fail together, so the table is
      // symmetric; a same-row/column pair whose link is down takes 2 hops.
      row[j] = i == j ? 0 : (pt >= 0 && topo_.port_enabled(base + i, pt) ? 1 : 2);
    }
  }
}

void MinimalPathTable::rebuild_pair(GroupId a, GroupId b) {
  LinkRecord* out = &records_[pair_index(a, b) * pair_links_];
  for (const GlobalLink& link : topo_.global_links(a, b))
    *out++ = LinkRecord{static_cast<std::int16_t>(link.src_router - a * rpg_),
                        static_cast<std::int16_t>(link.src_port),
                        static_cast<std::int16_t>(link.dst_router - b * rpg_)};
}

void MinimalPathTable::rebuild_buckets(RouterId router, GroupId peer) {
  const GroupId g = group_of_[router];
  assert(peer != g);
  const LinkRecord* links = records(g, peer);
  const std::size_t count = topo_.global_links(g, peer).size();
  const std::int8_t* hops = hops_row(g, router - g * rpg_);
  std::uint16_t* out = &buckets_[(static_cast<std::size_t>(router) * groups_ + peer) *
                                 (3 + pair_links_)];
  std::uint16_t n = 0;
  for (int bucket = 0; bucket < 3; ++bucket) {
    for (std::size_t k = 0; k < count; ++k)
      if (hops[links[k].src] == bucket) out[3 + n++] = static_cast<std::uint16_t>(k);
    out[bucket] = n;
  }
}

void MinimalPathTable::refresh() {
  if (epoch_seen_ == topo_.epoch()) return;
  // A local-link change inside group g changes g's local hop counts, which
  // reclassify the source-side buckets of every entry owned by g's routers
  // (toward every peer). A global-link change between a and b changes that
  // pair's records, invalidating a's entries toward b and b's toward a.
  std::vector<char> group_stale(static_cast<std::size_t>(groups_), 0);
  for (GroupId g = 0; g < groups_; ++g) {
    if (local_seen_[g] != topo_.local_version(g)) {
      local_seen_[g] = topo_.local_version(g);
      rebuild_local_hops(g);
      group_stale[g] = 1;
    }
  }
  for (GroupId a = 0; a < groups_; ++a) {
    for (GroupId b = 0; b < groups_; ++b) {
      if (a == b) continue;
      const bool pair_stale = pair_seen_[pair_index(a, b)] != topo_.pair_version(a, b);
      if (pair_stale) {
        pair_seen_[pair_index(a, b)] = topo_.pair_version(a, b);
        rebuild_pair(a, b);
      }
      if (!pair_stale && !group_stale[a]) continue;
      for (int i = 0; i < rpg_; ++i) rebuild_buckets(a * rpg_ + i, b);
    }
  }
  epoch_seen_ = topo_.epoch();
}

void MinimalPathTable::append_local(Route& route, GroupId g, int i, int j, Rng& rng) const {
  if (i == j) return;
  const RouterId base = g * rpg_;
  if (hops_row(g, i)[j] == 1) {
    route.push(base + i, port(i, j));
    return;
  }
  int mid;
  if (topo_.disabled_local_links() != 0) {
    mid = faulted_mid(g, i, j, rng);
  } else {
    // Exactly the two row/column intersections qualify. The Bernoulli draw
    // (rather than uniform(2)) is the draw sequence seeded runs have always
    // used on a fabric with every local link up.
    mid = rng.bernoulli(0.5) ? row_[i] * cols_ + col_[j] : row_[j] * cols_ + col_[i];
  }
  route.push(base + i, port(i, mid));
  route.push(base + mid, port(mid, j));
}

int MinimalPathTable::faulted_mid(GroupId g, int i, int j, Rng& rng) const {
  // Pick uniformly among the 2-hop mids whose both legs are up, in canonical
  // order (the connectivity guard keeps the set non-empty). Counting first
  // and then walking to the chosen one keeps the single uniform(n) draw
  // without a temporary list.
  const std::int8_t* hops_i = hops_row(g, i);
  const std::int8_t* hops_j = hops_row(g, j);
  auto for_each_mid = [&](auto&& visit) {
    if (row_[i] == row_[j]) {
      for (int col = 0; col < cols_; ++col)
        if (col != col_[i] && col != col_[j] && visit(row_[i] * cols_ + col)) return;
    } else if (col_[i] == col_[j]) {
      for (int row = 0; row < rpg_ / cols_; ++row)
        if (row != row_[i] && row != row_[j] && visit(row * cols_ + col_[i])) return;
    } else if (!visit(row_[i] * cols_ + col_[j])) {
      visit(row_[j] * cols_ + col_[i]);
    }
  };
  std::uint64_t usable = 0;
  for_each_mid([&](int m) {
    usable += hops_i[m] == 1 && hops_j[m] == 1;
    return false;
  });
  assert(usable > 0 && "connectivity guard violated");
  std::uint64_t pick = rng.uniform(usable);
  int mid = -1;
  for_each_mid([&](int m) {
    if (hops_i[m] != 1 || hops_j[m] != 1 || pick-- != 0) return false;
    mid = m;
    return true;
  });
  return mid;
}

void MinimalPathTable::append_minimal(Route& route, RouterId from, RouterId to, Rng& rng) const {
  if (from == to) return;
  const GroupId gf = group_of_[from];
  const GroupId gt = group_of_[to];
  const int fi = from - gf * rpg_;
  const int ti = to - gt * rpg_;
  if (gf == gt) {
    append_local(route, gf, fi, ti, rng);
    return;
  }

  // Pick a global link minimizing src_hops + 1 + dst_hops; ties broken
  // uniformly by reservoir sampling over the bucket streams.
  const LinkRecord* links = records(gf, gt);
  const std::uint16_t* buckets = entry(from, gt);
  const std::int8_t* dst_hops = hops_row(gt, ti);
  int best_cost = 100;
  const LinkRecord* best = nullptr;
  std::uint64_t ties = 0;
  auto scan = [&](int begin, int end, int src_hops) {
    for (int k = begin; k < end; ++k) {
      const LinkRecord& link = links[buckets[3 + k]];
      const int cost = src_hops + 1 + dst_hops[link.dst];
      if (cost < best_cost) {
        best_cost = cost;
        best = &link;
        ties = 1;
      } else if (cost == best_cost) {
        ++ties;
        if (rng.uniform(ties) == 0) best = &link;
      }
    }
  };
  scan(0, buckets[0], 0);
  // Bucket 1 can only help if the current best has dst-side hops >= 1, and
  // bucket 2 only if the best so far is worse than 3.
  if (best_cost > 2) scan(buckets[0], buckets[1], 1);
  if (best_cost > 3) scan(buckets[1], buckets[2], 2);
  assert(best != nullptr);

  append_local(route, gf, fi, best->src, rng);
  route.push(gf * rpg_ + best->src, best->src_port);
  append_local(route, gt, best->dst, ti, rng);
}

int MinimalPathTable::min_hops(RouterId from, RouterId to) const {
  if (from == to) return 0;
  const GroupId gf = group_of_[from];
  const GroupId gt = group_of_[to];
  const int ti = to - gt * rpg_;
  if (gf == gt) return hops_row(gt, ti)[from - gf * rpg_];
  const LinkRecord* links = records(gf, gt);
  const std::uint16_t* buckets = entry(from, gt);
  const std::int8_t* dst_hops = hops_row(gt, ti);
  int best = 100;
  int begin = 0;
  // Bucket b costs at least b + 1, so it cannot beat a best of b + 1.
  for (int bucket = 0; bucket < 3 && best > bucket + 1; ++bucket) {
    for (int k = begin; k < buckets[bucket]; ++k)
      best = std::min(best, bucket + 1 + dst_hops[links[buckets[3 + k]].dst]);
    begin = buckets[bucket];
  }
  return best;
}

}  // namespace dfly
