// Example: watch congestion evolve in time while a bursty background job
// shares the machine with a target application — the dynamics behind the
// paper's Figs. 9-10, as a timeline instead of end-of-run aggregates.
//
// Usage: congestion_timeline [app_ranks] [burst_KiB] [sample_us]
//   defaults: 512, 256, 10
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "place/placement.hpp"
#include "replay/replay.hpp"
#include "routing/adaptive.hpp"
#include "util/table.hpp"
#include "workload/background.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace dfly;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 512;
  const Bytes burst = (argc > 2 ? std::atoll(argv[2]) : 256) * units::kKiB;
  const SimTime sample = (argc > 3 ? std::atoll(argv[3]) : 10) * units::kMicrosecond;

  const TopoParams params = TopoParams::theta();
  const DragonflyTopology topo(params);
  Engine engine;
  AdaptiveRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));

  // Target app: 3 ring sweeps on a random-node placement.
  const Trace trace = make_ring_trace(ranks, 128 * units::kKiB, 3);
  Rng rng(2);
  const Placement placement = make_placement(PlacementKind::RandomNode, params, ranks, rng);
  ReplayEngine replay(engine, network, trace, placement);

  // Bursty neighbor on everything else.
  BackgroundSpec spec;
  spec.pattern = BackgroundSpec::Pattern::Bursty;
  spec.message_bytes = burst;
  spec.burst_fanout = 8;
  spec.interval = 100 * units::kMicrosecond;
  BackgroundDriver background(engine, network, remaining_nodes(params, placement), spec, Rng(3));

  CounterRegistry registry;
  register_network_counters(registry, network);
  CounterProbe probe(engine, registry, sample);
  SimTime app_finish = 0;
  replay.set_completion_callback([&](SimTime end) {
    app_finish = end;
    background.request_stop();
    probe.request_stop();
  });

  std::printf("app: %d-rank ring | background: %lld KiB x%d bursts every %.1f ms | sampling %lld us\n",
              ranks, static_cast<long long>(burst / units::kKiB), spec.burst_fanout,
              units::to_ms(spec.interval), static_cast<long long>(sample / units::kMicrosecond));

  probe.start();
  background.start();
  replay.start();
  engine.run();

  Table t("Network state over time (bursts appear as queue spikes)");
  t.set_columns({"time (ms)", "delivered (MB)", "throughput (GB/s)", "queued (MB)",
                 "queued local (MB)", "queued global (MB)", "queued terminal (MB)",
                 "msgs in flight"});
  const std::vector<CounterSnapshot>& snaps = probe.snapshots();
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const CounterSnapshot& s = snaps[i];
    const Bytes delivered = s.value_of("net.bytes_delivered");
    const Bytes local = s.value_of("net.queued_bytes_local");
    const Bytes global = s.value_of("net.queued_bytes_global");
    const Bytes terminal = s.value_of("net.queued_bytes_terminal");
    double gbps = 0.0;  // delivered-bytes rate since the previous sample
    if (i > 0) {
      const CounterSnapshot& prev = snaps[i - 1];
      const double bytes = static_cast<double>(delivered - prev.value_of("net.bytes_delivered"));
      const double ns = static_cast<double>(s.time - prev.time);
      gbps = ns > 0 ? bytes / ns : 0.0;  // bytes/ns == GB/s
    }
    t.add_row({Table::num(units::to_ms(s.time), 3), Table::num(units::to_mb(delivered), 2),
               Table::num(gbps, 2), Table::num(units::to_mb(local + global + terminal), 3),
               Table::num(units::to_mb(local), 3), Table::num(units::to_mb(global), 3),
               Table::num(units::to_mb(terminal), 3),
               Table::num(s.value_of("net.messages_in_flight"))});
  }
  t.print_markdown(std::cout);
  std::printf("app finished at %.3f ms; background issued %.1f MB in %llu bursts\n",
              units::to_ms(app_finish), units::to_mb(background.bytes_issued()),
              static_cast<unsigned long long>(background.ticks()));
  return 0;
}
