#include "routing/adaptive.hpp"

#include <algorithm>

#include "routing/adaptive_global.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

AdaptiveRouting::AdaptiveRouting(const DragonflyTopology& topo, Bytes bias_bytes,
                                 double nonminimal_penalty, bool whole_path)
    : table_(topo),
      bias_bytes_(bias_bytes),
      nonminimal_penalty_(nonminimal_penalty),
      whole_path_(whole_path) {}

Route AdaptiveRouting::compute(NodeId src, NodeId dst, const CongestionView& congestion,
                               Rng& rng) const {
  const Coordinates& c = table_.topology().coords();
  const RouterId r_src = c.router_of_node(src);
  const RouterId r_dst = c.router_of_node(dst);
  const int eject = c.slot_of_node(dst);
  // routes[best] holds the best candidate so far and the next one is built
  // in the other buffer, so a winning candidate is never copied.
  Route routes[2];
  if (r_src == r_dst) {
    routes[0].push(r_dst, eject);
    return routes[0];
  }

  // Two independent minimal instantiations (tie-breaks differ), then two
  // Valiant detours through random intermediate routers. Minimal candidates
  // come first, so keeping the earlier candidate on a tied score is the
  // preference for minimal.
  int best = -1;
  double best_score = 0;
  bool best_minimal = false;
  double class_best[2] = {0, 0};  // best minimal / nonminimal score, telemetry
  for (int i = 0; i < 4; ++i) {
    const bool minimal = i < 2;
    const int slot = best == 0 ? 1 : 0;
    Route& route = routes[slot];
    route.clear();
    if (minimal) {
      table_.append_minimal(route, r_src, r_dst, rng);
    } else {
      const RouterId via = pick_valiant_intermediate(table_.topology(), r_src, r_dst, rng);
      append_valiant(table_, route, r_src, via, r_dst, rng);
    }
    route.push(r_dst, eject);

    Bytes queued = congestion.queued_bytes(route.first().router, route.first().port);
    if (whole_path_) {
      for (int h = 1; h < route.size(); ++h)
        queued = std::max(queued, congestion.queued_bytes(route[h].router, route[h].port));
    }
    double score = static_cast<double>(queued + bias_bytes_) * route.routers_traversed();
    if (!minimal) score *= nonminimal_penalty_;
    double& class_score = class_best[minimal ? 0 : 1];
    if (i % 2 == 0 || score < class_score) class_score = score;
    if (best < 0 || score < best_score) {
      best = slot;
      best_score = score;
      best_minimal = minimal;
    }
  }
  if (telemetry_)
    telemetry_->record(r_src, best_minimal, best_score, class_best[0], class_best[1]);
  return routes[best];
}

const char* to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::Minimal: return "min";
    case RoutingKind::Adaptive: return "adp";
    case RoutingKind::Valiant: return "val";
    case RoutingKind::AdaptiveGlobal: return "adpg";
  }
  return "?";
}

std::unique_ptr<RoutingAlgorithm> make_routing(RoutingKind kind, const DragonflyTopology& topo) {
  switch (kind) {
    case RoutingKind::Minimal: return std::make_unique<MinimalRouting>(topo);
    case RoutingKind::Adaptive: return std::make_unique<AdaptiveRouting>(topo);
    case RoutingKind::Valiant: return std::make_unique<ValiantRouting>(topo);
    case RoutingKind::AdaptiveGlobal: return std::make_unique<AdaptiveGlobalRouting>(topo);
  }
  return nullptr;
}

}  // namespace dfly
