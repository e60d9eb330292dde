// Adaptive (UGAL-L style) routing, matching the paper §III-C: "the path taken
// by a packet will be chosen based on congestion situation from up to four
// possible randomly selected routes, two minimal and two non-minimal".
//
// The decision is made at the source using the source router's output queue
// depths: each candidate is scored as
//     (queued bytes on its first-hop channel + one chunk) * hop count
// and the lowest score wins; ties prefer the minimal candidates. This is the
// locally-sensed UGAL variant — the same information a per-hop adaptive
// implementation uses at the injection decision point.
#pragma once

#include "routing/algorithm.hpp"
#include "routing/router_table.hpp"

namespace dfly {

class AdaptiveRouting : public RoutingAlgorithm {
 public:
  /// `bias_bytes` is added to every candidate's queue estimate so that hop
  /// count matters even on an idle network (minimal then always wins).
  /// `nonminimal_penalty` multiplies nonminimal scores — the standard UGAL
  /// threshold that accounts for a Valiant path consuming roughly twice the
  /// link capacity of a minimal one; a packet only detours when the minimal
  /// queue is substantially deeper.
  explicit AdaptiveRouting(const DragonflyTopology& topo, Bytes bias_bytes = 2048,
                           double nonminimal_penalty = 2.0)
      : AdaptiveRouting(topo, bias_bytes, nonminimal_penalty, false) {}

  Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                Rng& rng) const override;
  std::string name() const override { return "adaptive"; }
  void on_topology_changed() override { table_.refresh(); }

 protected:
  /// `whole_path` scores a candidate by the deepest queue along its entire
  /// path instead of its first hop's (UGAL-G, adaptive_global.hpp).
  AdaptiveRouting(const DragonflyTopology& topo, Bytes bias_bytes, double nonminimal_penalty,
                  bool whole_path);

 private:
  MinimalPathTable table_;
  Bytes bias_bytes_;
  double nonminimal_penalty_;
  bool whole_path_;
};

}  // namespace dfly
