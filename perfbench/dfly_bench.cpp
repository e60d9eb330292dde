// Host-time benchmark of the dragonfly simulator (perfbench/README.md).
//
// One process measures one workload for a wall-clock budget:
//
//   dfly_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--threads N] [--small] [--expect-digest HEX]
//
// --trace 0 repeats the public entry point — trace generation, topology
// build, run_experiment with the shared topology — and reports the end-to-end
// metrics. --trace 1 alternates that untraced run with a hand-built copy of
// run_experiment's pipeline (make_placement, make_routing, Engine, Network,
// ReplayEngine, HealthMonitor) whose RoutingAlgorithm and MessageSink are
// wrapped in timing decorators, and reports per-layer medians. Every run is
// checked; the traced run must reproduce the untraced run's digest. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fault/health.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "place/placement.hpp"
#include "prof/wall_histogram.hpp"
#include "replay/replay.hpp"
#include "routing/algorithm.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "workload/characterize.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dfly;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  PlacementKind placement;
  RoutingKind routing;
  int threads;  ///< [engine] threads
};

// The paper's balanced extreme, its localized extreme, and the one load that
// finishes under the sharded engine (README.md gives the rationale).
constexpr Spec kSpecs[] = {
    {"cr_rand_adp", PlacementKind::RandomNode, RoutingKind::Adaptive, 0},
    {"amg_cont_min", PlacementKind::Contiguous, RoutingKind::Minimal, 0},
    {"a2a_rand_adp_t1", PlacementKind::RandomNode, RoutingKind::Adaptive, 1},
};

/// A 5-group dragonfly of 2x8 routers per group, 4 nodes per router and one
/// global port per router: 80 routers, 320 nodes. A run's state then stays
/// near a core's L2, and its speed varies far less on a shared host than on
/// Theta (864 routers), which ran up to 2x slower in busy phases (README.md,
/// "Why not Theta").
TopoParams bench_topology() {
  TopoParams p = TopoParams::theta();
  p.groups = 5;
  p.rows = 2;
  p.cols = 8;
  p.global_ports_per_router = 1;
  return p;
}

// Sizes of one run. Full size puts a serial run near 0.05 s of host time on
// a 4-core x86 host; --small shrinks CR and AMG for the self-test.
constexpr int kCrRanks = 256;
constexpr int kAmgGrid = 6;  ///< AMG ranks on a 6x6x6 grid
constexpr double kCrScale = 0.05, kCrScaleSmall = 0.02;
constexpr int kAmgVcycles = 4, kAmgVcyclesSmall = 1;
// The all-to-all keeps its size: at 0.1 (2-chunk messages) the
// sharded engine deadlocks on this machine (ROADMAP item 1).
constexpr int kA2aRanks = 64;
constexpr double kA2aScale = 0.25;

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

Workload generate(const Spec& spec, bool small) {
  const std::string name = spec.name;
  if (name == "cr_rand_adp") {
    CrParams p;
    p.ranks = kCrRanks;
    p.iterations = 1;
    p.scale = small ? kCrScaleSmall : kCrScale;
    return make_crystal_router(p);
  }
  if (name == "amg_cont_min") {
    AmgParams p;
    p.nx = p.ny = p.nz = kAmgGrid;
    p.vcycles = small ? kAmgVcyclesSmall : kAmgVcycles;
    return make_amg(p);
  }
  Trace t = make_all_to_all_trace(kA2aRanks, 32 * units::kKiB);
  t.scale_message_sizes(kA2aScale);
  return Workload{"alltoall", std::move(t)};
}

// ------------------------------------------------------------ run checking

/// What one simulated run produced, from either pipeline.
struct Outcome {
  RunMetrics metrics;
  bool stalled = false;
  bool hit_event_limit = false;
  bool conservation_ok = true;
};

/// Empty when the run is sound; otherwise why it failed.
std::string failure_of(const Outcome& o, int ranks) {
  if (o.stalled) return "stalled";
  if (o.hit_event_limit) return "hit the event limit";
  if (!o.conservation_ok) return "failed the chunk-conservation audit";
  const std::vector<double>& comm = o.metrics.comm_time_ms;
  if (static_cast<int>(comm.size()) != ranks ||
      std::any_of(comm.begin(), comm.end(), [](double ms) { return ms < 0; }))
    return "left ranks unfinished";
  return "";
}

/// FNV-1a over the simulated results a pure speed-up must leave unchanged:
/// makespan, per-rank communication times, events, chunk-hops, bytes.
class Digest {
 public:
  template <class T>
  void add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(const RunMetrics& m) {
  Digest d;
  d.add(m.makespan_ms);
  d.add(m.comm_time_ms.size());
  for (const double ms : m.comm_time_ms) d.add(ms);
  d.add(m.events);
  d.add(m.chunks);
  d.add(m.bytes_delivered);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ------------------------------------------------------- timing decorators

/// Per-lane accumulators. Routes are computed and sink callbacks run on the
/// lane that owns the state they touch, and a lane runs on one thread at a
/// time, so no two threads ever share a slot.
struct alignas(64) LaneAcc {
  std::int64_t routing_ns = 0;
  std::uint64_t routing_calls = 0;
  std::uint64_t routers = 0;  ///< routers on every computed route
  prof::WallHistogram routing_hist{5};
  std::int64_t sink_ns = 0;                 ///< sink callbacks, nested routing included
  std::int64_t sink_nested_routing_ns = 0;  ///< routing time inside sink callbacks
  std::uint64_t sink_calls = 0;
};

class TimedRouting final : public RoutingAlgorithm {
 public:
  TimedRouting(RoutingAlgorithm& inner, const Engine& engine, std::vector<LaneAcc>& acc)
      : inner_(inner), engine_(engine), acc_(acc) {}

  Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                Rng& rng) const override {
    const auto t0 = Clock::now();
    Route route = inner_.compute(src, dst, congestion, rng);
    const std::int64_t ns = ns_since(t0);
    LaneAcc& a = acc_[static_cast<std::size_t>(engine_.current_lane())];
    a.routing_ns += ns;
    ++a.routing_calls;
    a.routers += static_cast<std::uint64_t>(route.routers_traversed());
    a.routing_hist.add(ns);
    return route;
  }
  void on_topology_changed() override { inner_.on_topology_changed(); }
  bool uses_remote_congestion() const override { return inner_.uses_remote_congestion(); }
  std::string name() const override { return inner_.name(); }

 private:
  RoutingAlgorithm& inner_;
  const Engine& engine_;
  std::vector<LaneAcc>& acc_;
};

class TimedSink final : public MessageSink {
 public:
  TimedSink(MessageSink& inner, const Engine& engine, std::vector<LaneAcc>& acc)
      : inner_(inner), engine_(engine), acc_(acc) {}

  void on_message_injected(MsgId id, std::uint64_t user_data, SimTime now) override {
    timed([&] { inner_.on_message_injected(id, user_data, now); });
  }
  void on_message_delivered(MsgId id, std::uint64_t user_data, SimTime now) override {
    timed([&] { inner_.on_message_delivered(id, user_data, now); });
  }

 private:
  template <class F>
  void timed(F&& callback) {
    LaneAcc& a = acc_[static_cast<std::size_t>(engine_.current_lane())];
    const std::int64_t routing_before = a.routing_ns;
    const auto t0 = Clock::now();
    callback();
    a.sink_ns += ns_since(t0);
    a.sink_nested_routing_ns += a.routing_ns - routing_before;
    ++a.sink_calls;
  }

  MessageSink& inner_;
  const Engine& engine_;
  std::vector<LaneAcc>& acc_;
};

// ---------------------------------------------------------------- pipelines

using Layers = std::map<std::string, double>;

/// The untraced run: the public entry point with the shared topology.
Outcome run_untraced(const Workload& workload, const DragonflyTopology& topo,
                     const ExperimentConfig& config, const ExperimentOptions& options) {
  const ExperimentResult r = run_experiment(workload, config, options, &topo);
  return Outcome{r.metrics, r.stalled, r.hit_event_limit, r.conservation_ok};
}

/// run_experiment's pipeline for a plain run (no faults, background,
/// telemetry, checkpoints or profiler), rebuilt from public classes with the
/// same RNG tree so that it simulates exactly what run_experiment does.
Outcome run_traced(const Workload& workload, const DragonflyTopology& topo,
                   const ExperimentConfig& config, const ExperimentOptions& options,
                   Layers& layers) {
  const auto t_pipeline = Clock::now();
  Rng master(options.seed);
  Rng placement_rng(options.seed ^ (static_cast<std::uint64_t>(config.placement) + 0x1000));
  auto t0 = Clock::now();
  const Placement placement =
      make_placement(config.placement, options.topo, workload.trace.ranks(), placement_rng);
  layers["place.build_s"] = seconds_since(t0);

  Engine engine;
  t0 = Clock::now();
  const std::unique_ptr<RoutingAlgorithm> routing = make_routing(config.routing, topo);
  layers["routing.table_build_s"] = seconds_since(t0);
  if (options.threads > 0) {
    ShardingOptions sharding;
    sharding.shards = options.topo.groups;
    sharding.lookahead = options.net.global_latency;
    sharding.threads = options.threads;
    engine.enable_sharding(sharding);
  }
  std::vector<LaneAcc> acc(static_cast<std::size_t>(engine.lanes()));
  RoutingTelemetry decisions;
  decisions.presize(options.topo.total_routers());
  routing->set_telemetry(&decisions);
  TimedRouting timed_routing(*routing, engine, acc);

  Network network(engine, topo, options.net, timed_routing, master.fork(1));
  if (options.threads > 0) network.enable_sharding(options.net.global_latency);
  ReplayEngine replay(engine, network, workload.trace, placement, options.replay);
  TimedSink timed_sink(replay, engine, acc);
  network.set_sink(&timed_sink);

  HealthMonitor monitor(engine, network, options.health);
  monitor.set_work_remaining([&replay] { return !replay.finished(); });
  if (options.health.enabled) monitor.start();

  t0 = Clock::now();
  replay.start();
  layers["replay.start_s"] = seconds_since(t0);
  t0 = Clock::now();
  engine.run();
  const double run_s = seconds_since(t0);
  network.finalize(engine.now());
  t0 = Clock::now();
  Outcome out{collect_metrics(network, replay, placement, engine), monitor.stalled(),
              engine.hit_event_limit(), network.conservation_ok()};
  layers["metrics.collect_s"] = seconds_since(t0);
  layers["pipeline_s"] = seconds_since(t_pipeline);

  LaneAcc total;
  for (const LaneAcc& a : acc) {
    total.routing_ns += a.routing_ns;
    total.routing_calls += a.routing_calls;
    total.routers += a.routers;
    total.routing_hist.merge(a.routing_hist);
    total.sink_ns += a.sink_ns;
    total.sink_nested_routing_ns += a.sink_nested_routing_ns;
    total.sink_calls += a.sink_calls;
  }
  const double calls = static_cast<double>(total.routing_calls);
  const double routing_s = static_cast<double>(total.routing_ns) * 1e-9;
  const double replay_s =
      static_cast<double>(total.sink_ns - total.sink_nested_routing_ns) * 1e-9;
  const double hops = static_cast<double>(out.metrics.chunks);
  const double events = static_cast<double>(engine.events_processed());
  layers["routing.self_s"] = routing_s;
  layers["routing.calls"] = calls;
  layers["routing.ns_per_call_p50"] = static_cast<double>(total.routing_hist.percentile(50));
  layers["routing.ns_per_call_p99"] = static_cast<double>(total.routing_hist.percentile(99));
  layers["routing.routers_per_route"] = calls > 0 ? static_cast<double>(total.routers) / calls : 0;
  layers["routing.nonminimal_share"] =
      decisions.decisions() > 0 ? static_cast<double>(decisions.nonminimal_total()) /
                                      static_cast<double>(decisions.decisions())
                                : 0;
  layers["replay.self_s"] = replay_s;
  layers["replay.sink_calls"] = static_cast<double>(total.sink_calls);
  layers["net.chunk_hops"] = hops;
  const double residual_s = run_s - routing_s - replay_s;
  layers["net.residual_s"] = residual_s;
  layers["net.residual_ns_per_chunk_hop"] = hops > 0 ? residual_s * 1e9 / hops : 0;
  layers["sim.run_s"] = run_s;
  layers["sim.events"] = events;
  layers["sim.events_per_chunk_hop"] = hops > 0 ? events / hops : 0;
  layers["sim.peak_pending"] = static_cast<double>(engine.scheduler_stats().peak_pending);
  layers["sim.calendar_resizes"] = static_cast<double>(engine.scheduler_stats().resizes);
  // A serial engine is one lane that runs every event in global context.
  double imbalance = 1, global_share = 1;
  if (engine.sharded()) {
    double max_lane = 0, sum_lane = 0;
    for (int lane = 0; lane < engine.global_lane(); ++lane) {
      const double n = static_cast<double>(engine.lane_processed(lane));
      max_lane = std::max(max_lane, n);
      sum_lane += n;
    }
    const double mean_lane = sum_lane / engine.global_lane();
    imbalance = mean_lane > 0 ? max_lane / mean_lane : 1;
    const double global = static_cast<double>(engine.lane_processed(engine.global_lane()));
    global_share = events > 0 ? global / events : 0;
  }
  layers["sim.lane_imbalance"] = imbalance;
  layers["sim.global_lane_share"] = global_share;
  return out;
}

// ------------------------------------------------------------------ output

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"chunk_hops_per_s", "1/s"}, {"peak_rss_mb", "MB"}};

constexpr Metric kPerLayer[] = {
    {"routing.self_s", "s"},
    {"routing.calls", "count"},
    {"routing.ns_per_call_p50", "ns"},
    {"routing.ns_per_call_p99", "ns"},
    {"routing.nonminimal_share", "fraction"},
    {"routing.routers_per_route", "routers"},
    {"routing.table_build_s", "s"},
    {"replay.self_s", "s"},
    {"replay.sink_calls", "count"},
    {"replay.start_s", "s"},
    {"net.chunk_hops", "count"},
    {"net.residual_s", "s"},
    {"net.residual_ns_per_chunk_hop", "ns"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_chunk_hop", "ratio"},
    {"sim.peak_pending", "count"},
    {"sim.calendar_resizes", "count"},
    {"sim.lane_imbalance", "ratio"},
    {"sim.global_lane_share", "fraction"},
    {"workload.gen_s", "s"},
    {"workload.messages", "count"},
    {"workload.bytes", "bytes"},
    {"topo.build_s", "s"},
    {"place.build_s", "s"},
    {"metrics.collect_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  int threads = -1;  ///< -1 = the workload's own setting
  bool small = false;
  std::optional<std::uint64_t> expect_digest;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dfly_bench: %s\nusage: dfly_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--threads N] [--small] [--expect-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      a.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--threads") a.threads = std::stoi(v);
      else if (flag == "--expect-digest") a.expect_digest = std::stoull(v, nullptr, 16);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Spec* spec = find_spec(args.workload);
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");

  const ExperimentConfig config{spec->placement, spec->routing};
  ExperimentOptions options;
  options.seed = args.seed;
  options.topo = bench_topology();
  options.threads = args.threads >= 0 ? args.threads : spec->threads;

  std::printf("context {\"workload\": \"%s\", \"config\": \"%s\", \"seed\": %" PRIu64
              ", \"threads\": %d, \"host_cores\": %u, \"compiler\": \"%s\", \"build_type\": "
              "\"%s\", \"topology\": \"%s\", \"small\": %s, \"trace\": %s}\n",
              spec->name, config.name().c_str(), args.seed, options.threads,
              std::thread::hardware_concurrency(), compiler().c_str(), DFLY_BENCH_BUILD_TYPE,
              options.topo.describe().c_str(),
              args.small ? "true" : "false", args.trace ? "true" : "false");

  int attempted = 0, failed = 0;
  std::optional<std::uint64_t> first_digest;
  std::map<std::string, std::vector<double>> samples;
  // Counts one run; returns whether it passed.
  const auto check = [&](const Outcome& o, int ranks, const char* kind) {
    ++attempted;
    std::string why = failure_of(o, ranks);
    const std::uint64_t d = digest_of(o.metrics);
    if (why.empty() && args.expect_digest && d != *args.expect_digest)
      why = "digest " + hex(d) + " differs from the reference " + hex(*args.expect_digest);
    if (why.empty() && first_digest && d != *first_digest)
      why = "digest " + hex(d) + " differs from this process's first run " + hex(*first_digest);
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "dfly_bench: %s run %d failed: %s\n", kind, attempted, why.c_str());
      return false;
    }
    if (!first_digest) first_digest = d;
    return true;
  };

  const auto t_start = Clock::now();
  // setup_s is the fastest of the set-ups spread over the whole run: the one
  // that feeds each repetition and kExtraSetups more before it. A first,
  // untimed set-up faults in the heap that the timed ones reuse.
  constexpr int kExtraSetups = 3;
  const auto time_setup = [&] {
    const auto t0 = Clock::now();
    const Workload w = generate(*spec, args.small);
    const DragonflyTopology topo(options.topo);
    return seconds_since(t0);
  };
  time_setup();

  // Runs until the next one would end past the budget, judged by the last.
  double last_iteration_s = 0;
  double chunks_per_run = 0;
  do {
    const auto t_iteration = Clock::now();
    for (int i = 0; i < kExtraSetups; ++i) samples["setup_s"].push_back(time_setup());
    auto t0 = Clock::now();
    const Workload workload = generate(*spec, args.small);
    const double gen_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const DragonflyTopology topo(options.topo);
    const double topo_s = seconds_since(t1);
    const int ranks = workload.trace.ranks();
    double sim_s = 0;  ///< untraced run_experiment time; 0 if that run failed
    try {
      const auto t_sim = Clock::now();
      const Outcome untraced = run_untraced(workload, topo, config, options);
      const double run_s = seconds_since(t_sim);
      const double wall_s = seconds_since(t0);
      if (check(untraced, ranks, "untraced")) {
        sim_s = run_s;
        samples["wall_s"].push_back(wall_s);
        samples["setup_s"].push_back(gen_s + topo_s);
        samples["sim_s"].push_back(sim_s);
        // Equal in every passing run: the digest covers it.
        chunks_per_run = static_cast<double>(untraced.metrics.chunks);
      }
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "dfly_bench: untraced run %d threw: %s\n", attempted, e.what());
    }
    if (args.trace) {
      try {
        Layers layers;
        const Outcome traced = run_traced(workload, topo, config, options, layers);
        if (check(traced, ranks, "traced")) {
          layers["workload.gen_s"] = gen_s;
          layers["topo.build_s"] = topo_s;
          layers["workload.messages"] = static_cast<double>(CommMatrix(workload.trace).message_count());
          layers["workload.bytes"] = static_cast<double>(workload.trace.total_send_bytes());
          // Back-to-back pairs share the host's state, so compare per pair.
          if (sim_s > 0) layers["trace.overhead_frac"] = layers["pipeline_s"] / sim_s - 1;
          for (const auto& [name, value] : layers) samples[name].push_back(value);
        }
      } catch (const std::exception& e) {
        ++attempted;
        ++failed;
        std::fprintf(stderr, "dfly_bench: traced run %d threw: %s\n", attempted, e.what());
      }
    }
    last_iteration_s = seconds_since(t_iteration);
  } while (seconds_since(t_start) + last_iteration_s <= args.seconds);

  // Host interference only ever adds time, and on a shared host it comes in
  // busy phases that slow a run by up to 1.6x. A run repeats the workload
  // and its set-up hundreds of times, so the fastest of each comes from a
  // quiet moment: the run's estimate of the program's speed, and the
  // steadiest across runs (README.md). The per-layer numbers are medians.
  // The "samples" lines print the quartiles beside the result.
  const auto lowest = [&](const char* name) {
    const std::vector<double>& v = samples[name];
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
  };
  std::vector<std::pair<const Metric*, double>> report;
  if (!args.trace) {
    const std::map<std::string, double> values = {
        {"wall_s", lowest("wall_s")},
        {"setup_s", lowest("setup_s")},
        {"chunk_hops_per_s", chunks_per_run / std::max(lowest("sim_s"), 1e-9)},
        {"peak_rss_mb", peak_rss_mb()}};
    for (const Metric& m : kEndToEnd) report.emplace_back(&m, values.at(m.name));
  } else {
    for (const Metric& m : kPerLayer) report.emplace_back(&m, median(samples[m.name]));
  }

  std::printf("digest %s\n", first_digest ? hex(*first_digest).c_str() : "none");
  std::printf("runs %zu measured, %d attempted, %d failed\n", samples["sim_s"].size(), attempted,
              failed);
  for (const auto& [m, v] : report) std::printf("  %-32s %16.6g %s\n", m->name, v, m->unit);
  for (const char* name : {"wall_s", "setup_s", "sim_s", "pipeline_s"}) {
    std::vector<double> v = samples[name];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const auto at = [&v](double q) { return v[static_cast<std::size_t>(q * (v.size() - 1))]; };
    std::printf("samples %s n=%zu min=%.4g p25=%.4g median=%.4g p75=%.4g max=%.4g\n", name,
                v.size(), v.front(), at(0.25), median(v), at(0.75), v.back());
  }

  std::string metrics;
  for (const auto& [m, v] : report) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m->name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + m->unit + "\"}";
  }
  const bool correct = attempted > 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}
