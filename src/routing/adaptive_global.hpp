// Adaptive routing with global congestion knowledge (UGAL-G).
//
// Identical candidate generation to AdaptiveRouting (2 minimal + 2 Valiant),
// but each candidate is scored by the *bottleneck* queue along its entire
// path rather than the source router's local view. Physically unrealizable
// (no router knows remote queues instantaneously) but a useful upper bound on
// what adaptive routing could achieve — included for the ablation study.
#pragma once

#include "routing/adaptive.hpp"

namespace dfly {

class AdaptiveGlobalRouting : public AdaptiveRouting {
 public:
  explicit AdaptiveGlobalRouting(const DragonflyTopology& topo, Bytes bias_bytes = 2048,
                                 double nonminimal_penalty = 2.0)
      : AdaptiveRouting(topo, bias_bytes, nonminimal_penalty, true) {}

  std::string name() const override { return "adaptive-global"; }
  bool uses_remote_congestion() const override { return true; }
};

}  // namespace dfly
