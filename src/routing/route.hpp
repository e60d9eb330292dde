// Route representation shared by the routing algorithms and the network.
//
// A route is the full source-computed hop list of one packet chunk:
//   hops[i] = (router_i, out port on router_i, virtual channel)
// router_0 is the source node's router; the final hop's port is the terminal
// (ejection) port on the destination router.
//
// The VC of hop i is simply i: strictly increasing VCs along a path make the
// channel dependency graph acyclic, which gives deadlock freedom for any mix
// of minimal and Valiant routes (see DESIGN.md "Modelling decisions").
#pragma once

#include <cassert>
#include <cstdint>

#include "topo/coordinates.hpp"

namespace dfly {

/// Longest admissible path: Valiant = two back-to-back minimal segments of at
/// most 5 router-router hops each, plus the ejection hop.
inline constexpr int kMaxRouteHops = 12;

struct Hop {
  RouterId router;
  std::int16_t port;
  std::int8_t vc;
};

class Route {
 public:
  /// Appends a hop departing `router` via `port`; the VC is the hop index.
  void push(RouterId router, int port) {
    assert(len_ < kMaxRouteHops);
    hops_[len_] = Hop{router, static_cast<std::int16_t>(port), static_cast<std::int8_t>(len_)};
    ++len_;
  }

  void clear() { len_ = 0; }

  int size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const Hop& operator[](int i) const {
    assert(i >= 0 && i < len_);
    return hops_[i];
  }
  const Hop& first() const { return (*this)[0]; }
  const Hop& last() const { return (*this)[len_ - 1]; }

  /// Number of routers traversed (= hops, since each hop departs one router).
  int routers_traversed() const { return len_; }

 private:
  std::int8_t len_ = 0;
  Hop hops_[kMaxRouteHops];
};

}  // namespace dfly
