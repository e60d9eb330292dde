// Microbenchmarks (google-benchmark) for the simulator's hot paths: event
// scheduling/dispatch, route computation, topology construction, placement
// generation, and end-to-end network throughput in events per second.
//
// In addition to the google-benchmark suite, main() runs a head-to-head
// scheduler harness — binary heap vs. calendar queue, on a monotonic and a
// backoff-heavy event mix — plus the per-call cost of every routing kind, and
// records the result into BENCH_engine.json so the scheduler's and the
// routing decision's perf trajectory is tracked from change to change.
//
//   bench_micro_engine                # head-to-head + full gbench suite
//   bench_micro_engine --smoke        # quick head-to-head only; exits 1 if
//                                     # the calendar queue regresses vs. heap
//   bench_micro_engine --out=FILE     # where to write the JSON (default
//                                     # BENCH_engine.json in the cwd); top-
//                                     # level keys of an existing FILE that
//                                     # the harness does not write are kept
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <malloc.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "place/placement.hpp"
#include "prof/profiler.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "support/heap_event_queue.hpp"

namespace dfly {
namespace {

class NullHandler : public EventHandler {
 public:
  void handle_event(SimTime, const EventPayload&) override {}
};

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  NullHandler handler;
  for (auto _ : state) {
    Engine engine;
    Rng rng(1);
    for (std::uint64_t i = 0; i < events; ++i)
      engine.schedule(static_cast<SimTime>(rng.uniform(1'000'000)), &handler, EventPayload{});
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1 << 14)->Arg(1 << 17);

class IdleCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId, int) const override { return 0; }
};

template <typename Algorithm>
void route_benchmark(benchmark::State& state) {
  static const DragonflyTopology topo(TopoParams::theta());
  const Algorithm routing(topo);
  IdleCongestion idle;
  Rng rng(7);
  const int nodes = topo.params().total_nodes();
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    benchmark::DoNotOptimize(routing.compute(src, dst, idle, rng));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MinimalRoute(benchmark::State& state) { route_benchmark<MinimalRouting>(state); }
void BM_ValiantRoute(benchmark::State& state) { route_benchmark<ValiantRouting>(state); }
void BM_AdaptiveRoute(benchmark::State& state) { route_benchmark<AdaptiveRouting>(state); }
BENCHMARK(BM_MinimalRoute);
BENCHMARK(BM_ValiantRoute);
BENCHMARK(BM_AdaptiveRoute);

void BM_ThetaTopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    DragonflyTopology topo(TopoParams::theta());
    benchmark::DoNotOptimize(topo.total_channels());
  }
}
BENCHMARK(BM_ThetaTopologyBuild);

void BM_Placement(benchmark::State& state) {
  const TopoParams params = TopoParams::theta();
  const auto kind = static_cast<PlacementKind>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_placement(kind, params, 1000, rng));
  }
}
BENCHMARK(BM_Placement)->DenseRange(0, 4);

void BM_NetworkRandomTraffic(benchmark::State& state) {
  // End-to-end events/sec: 2000 random messages of 16 KiB on Theta.
  static const DragonflyTopology topo(TopoParams::theta());
  for (auto _ : state) {
    Engine engine;
    MinimalRouting routing(topo);
    Network network(engine, topo, NetworkParams::theta(), routing, Rng(3));
    Rng traffic(5);
    const int nodes = topo.params().total_nodes();
    for (int i = 0; i < 2000; ++i) {
      const auto src = static_cast<NodeId>(traffic.uniform(nodes));
      auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
      if (dst >= src) ++dst;
      network.send(src, dst, 16 * units::kKiB);
    }
    engine.run();
    benchmark::DoNotOptimize(network.bytes_delivered());
    state.counters["events"] = static_cast<double>(engine.events_processed());
  }
}
BENCHMARK(BM_NetworkRandomTraffic)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Head-to-head scheduler harness: heap vs. calendar queue.
//
// The hold model mirrors the simulator's steady state: the queue sits at a
// fixed occupancy and every dispatched event schedules a successor.
//  * monotonic mix — every successor lands a short uniform delay ahead, the
//    distribution of chunk/credit/port events in a running network.
//  * backoff-heavy mix — 10% of successors are retransmit backoff timers at
//    20 us << k (k in [0,16)), seconds into the future; stresses the
//    overflow tier.
// ---------------------------------------------------------------------------

struct MixSpec {
  const char* name;
  double far_fraction;  // probability a successor is a far-future backoff timer
};

constexpr MixSpec kMixes[] = {
    {"monotonic", 0.0},
    {"backoff_heavy", 0.1},
};

template <typename Queue>
double measure_mix_meps(const MixSpec& mix, std::size_t hold, std::uint64_t events) {
  Queue queue;
  NullHandler handler;
  Rng rng(42);
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (std::size_t i = 0; i < hold; ++i) {
    const auto when = static_cast<SimTime>(1 + rng.uniform(2000));
    queue.push(QueuedEvent{when, seq++, &handler, EventPayload{}});
  }
  SimTime checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t e = 0; e < events; ++e) {
    const QueuedEvent ev = queue.pop_min();
    now = ev.time;
    checksum += now;
    SimTime delay;
    if (mix.far_fraction > 0.0 && rng.bernoulli(mix.far_fraction))
      delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(16));
    else
      delay = 1 + static_cast<SimTime>(rng.uniform(2000));
    queue.push(QueuedEvent{now + delay, seq++, &handler, EventPayload{}});
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(checksum);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(events) / secs / 1e6;
}

struct MixResult {
  const char* name;
  std::uint64_t events;
  double heap_meps;
  double calendar_meps;
  double speedup;
};

MixResult run_head_to_head(const MixSpec& mix, std::size_t hold, std::uint64_t events,
                           int repetitions) {
  MixResult r{mix.name, events, 0.0, 0.0, 0.0};
  for (int rep = 0; rep < repetitions; ++rep) {
    r.heap_meps = std::max(r.heap_meps, measure_mix_meps<HeapEventQueue>(mix, hold, events));
    r.calendar_meps =
        std::max(r.calendar_meps, measure_mix_meps<CalendarEventQueue>(mix, hold, events));
  }
  r.speedup = r.calendar_meps / r.heap_meps;
  return r;
}

// ---------------------------------------------------------------------------
// Routing decision cost: host ns per RoutingAlgorithm::compute for every
// routing kind, on Theta and on perfbench's 80-router machine (5 groups of
// 2x8 routers, 1 global port per router), with the profiler off. Candidates
// are scored against an uneven congestion view so the adaptive kinds make
// real choices. table_heap_bytes is the heap the algorithm holds after
// construction (its MinimalPathTable, essentially), from glibc's allocator
// statistics.
// ---------------------------------------------------------------------------

class SkewedCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId router, int port) const override {
    std::uint64_t h = static_cast<std::uint64_t>(router) * 0x9E3779B1u ^
                      static_cast<std::uint64_t>(port) * 0x85EBCA77u;
    h ^= h >> 15;
    return static_cast<Bytes>(h % 7) * 1024;
  }
};

struct RoutingRow {
  const char* topo = "";
  RoutingKind kind = RoutingKind::Minimal;
  double ns_per_call = 0.0;  ///< best of the repetitions
  std::size_t table_heap_bytes = 0;
};

std::vector<RoutingRow> run_routing_rows(bool smoke) {
  TopoParams perfbench = TopoParams::theta();
  perfbench.groups = 5;
  perfbench.rows = 2;
  perfbench.cols = 8;
  perfbench.global_ports_per_router = 1;
  const std::pair<const char*, TopoParams> topos[] = {{"theta", TopoParams::theta()},
                                                      {"perfbench", perfbench}};
  const int calls = smoke ? 20'000 : 200'000;
  const int repetitions = smoke ? 2 : 5;
  const SkewedCongestion congestion;
  std::vector<RoutingRow> rows;
  for (const auto& [topo_name, params] : topos) {
    const DragonflyTopology topo(params);
    std::vector<std::pair<NodeId, NodeId>> pairs(1 << 14);
    Rng pick(11);
    const int nodes = params.total_nodes();
    for (auto& [src, dst] : pairs) {
      src = static_cast<NodeId>(pick.uniform(nodes));
      dst = static_cast<NodeId>(pick.uniform(nodes - 1));
      if (dst >= src) ++dst;
    }
    for (const RoutingKind kind : {RoutingKind::Minimal, RoutingKind::Adaptive,
                                   RoutingKind::Valiant, RoutingKind::AdaptiveGlobal}) {
      RoutingRow row;
      row.topo = topo_name;
      row.kind = kind;
      const std::size_t heap_before = mallinfo2().uordblks;
      const std::unique_ptr<RoutingAlgorithm> routing = make_routing(kind, topo);
      row.table_heap_bytes = mallinfo2().uordblks - heap_before;
      Rng rng(13);
      for (int rep = 0; rep < repetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < calls; ++i) {
          const auto& [src, dst] = pairs[static_cast<std::size_t>(i) & (pairs.size() - 1)];
          const Route route = routing->compute(src, dst, congestion, rng);
          benchmark::DoNotOptimize(route);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / calls;
        if (rep == 0 || ns < row.ns_per_call) row.ns_per_call = ns;
      }
      rows.push_back(row);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Multi-core scaling matrix: the sharded engine on Theta-scale random traffic
// at threads {1, 2, 4, 8}, each run with a src/prof/ profiler attached,
// recording the measured speedup over threads=1 alongside the profiler's
// barrier-stall fraction and lane imbalance — the two quantities that explain
// any gap between measured and ideal scaling (DESIGN.md §10/§11).
// ---------------------------------------------------------------------------

double run_sharded_theta(const DragonflyTopology& topo, int threads, int messages,
                         std::uint64_t* events_out, prof::Profiler* profiler) {
  const NetworkParams params = NetworkParams::theta();
  Engine engine;
  ShardingOptions sharding;
  sharding.shards = topo.params().groups;
  sharding.lookahead = params.global_latency;
  sharding.threads = threads;
  engine.enable_sharding(sharding);
  engine.set_profiler(profiler);
  MinimalRouting routing(topo);
  Network network(engine, topo, params, routing, Rng(3));
  network.enable_sharding(params.global_latency);
  Rng traffic(5);
  const int nodes = topo.params().total_nodes();
  for (int i = 0; i < messages; ++i) {
    const auto src = static_cast<NodeId>(traffic.uniform(nodes));
    auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
    if (dst >= src) ++dst;
    network.send(src, dst, 16 * units::kKiB);
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t total = engine.events_processed();
  *events_out = total;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(total) / secs / 1e6;
}

struct ScalingRow {
  int threads = 0;
  std::uint64_t events = 0;
  double meps = 0.0;
  double speedup = 0.0;              ///< meps over the threads=1 row's meps
  double barrier_stall_frac = 0.0;   ///< sum(wait) / sum(busy + wait)
  double lane_imbalance = 0.0;       ///< busiest lane busy / mean lane busy
};

std::vector<ScalingRow> run_scaling_matrix(bool smoke) {
  const int messages = smoke ? 2'000 : 20'000;
  const int repetitions = smoke ? 1 : 3;
  const DragonflyTopology topo(TopoParams::theta());
  std::vector<ScalingRow> rows;
  for (const int threads : {1, 2, 4, 8}) {
    ScalingRow row;
    row.threads = threads;
    for (int rep = 0; rep < repetitions; ++rep) {
      prof::ProfOptions popts;
      popts.enabled = true;
      prof::Profiler profiler(popts, topo.params().groups + 1, threads);
      const double meps = run_sharded_theta(topo, threads, messages, &row.events, &profiler);
      if (meps > row.meps) {
        row.meps = meps;
        row.barrier_stall_frac = profiler.barrier_stall_fraction();
        row.lane_imbalance = profiler.lane_imbalance();
      }
    }
    rows.push_back(row);
  }
  for (ScalingRow& r : rows) r.speedup = r.meps / rows.front().meps;
  return rows;
}

/// Index just past the JSON string that opens at text[i] (a '"'), or npos if
/// it never closes.
std::size_t skip_json_string(const std::string& text, std::size_t i) {
  for (++i; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// One top-level member of a JSON object: its key and its source text, from
/// the key's opening quote to the end of its value.
struct JsonMember {
  std::string key;
  std::string text;
};

/// Splits the JSON object in `text` into its top-level members, keeping each
/// member's bytes as they are. Returns false if `text` is not an object.
bool split_json_members(const std::string& text, std::vector<JsonMember>& members) {
  constexpr const char* kSpace = " \t\r\n";
  std::size_t i = text.find_first_not_of(kSpace);
  if (i == std::string::npos || text[i] != '{') return false;
  for (++i;;) {
    i = text.find_first_not_of(kSpace, i);
    if (i == std::string::npos) return false;
    if (text[i] == '}') return true;
    if (text[i] != '"') return false;
    const std::size_t begin = i;
    const std::size_t key_end = skip_json_string(text, begin);
    if (key_end == std::string::npos) return false;
    int depth = 0;
    for (i = key_end; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '"') {
        i = skip_json_string(text, i);
        if (i == std::string::npos) return false;
        --i;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if ((c == '}' || c == ']') && depth > 0) {
        --depth;
      } else if ((c == '}' || c == ',') && depth == 0) {
        break;
      }
    }
    if (i >= text.size()) return false;
    const std::size_t end = text.find_last_not_of(kSpace, i - 1) + 1;
    members.push_back({text.substr(begin + 1, key_end - begin - 2), text.substr(begin, end - begin)});
    if (text[i] == ',') ++i;
  }
}

/// The members of an existing `path` that the harness does not write (the
/// hand-recorded perf_record blocks), so a rewrite keeps them byte for byte.
/// A missing file has none; an unreadable or malformed one fails.
bool kept_members(const std::string& path, std::vector<JsonMember>& kept) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return true;
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<JsonMember> members;
  if (!split_json_members(text, members)) return false;
  static const char* const kHarnessKeys[] = {"benchmark", "smoke",   "hold",      "mixes",
                                              "routing",   "scaling", "host_cores"};
  for (JsonMember& m : members)
    if (std::find(std::begin(kHarnessKeys), std::end(kHarnessKeys), m.key) ==
        std::end(kHarnessKeys))
      kept.push_back(std::move(m));
  return true;
}

int run_harness(bool smoke, const std::string& out_path) {
  std::vector<JsonMember> kept;
  if (!kept_members(out_path, kept)) {
    std::fprintf(stderr, "cannot parse %s as a JSON object; not overwriting it\n",
                 out_path.c_str());
    return 1;
  }
  const std::size_t hold = smoke ? (1u << 14) : (1u << 16);
  const std::uint64_t events = smoke ? 400'000 : 4'000'000;
  const int repetitions = smoke ? 2 : 3;

  MixResult results[std::size(kMixes)];
  for (std::size_t i = 0; i < std::size(kMixes); ++i) {
    results[i] = run_head_to_head(kMixes[i], hold, events, repetitions);
    std::printf("[engine %-13s] heap %7.2f Mev/s | calendar %7.2f Mev/s | speedup %.2fx\n",
                results[i].name, results[i].heap_meps, results[i].calendar_meps,
                results[i].speedup);
  }

  const std::vector<RoutingRow> routing = run_routing_rows(smoke);
  for (const RoutingRow& r : routing)
    std::printf("[routing %-9s %-4s] %8.1f ns/call | table heap %zu B\n", r.topo,
                to_string(r.kind), r.ns_per_call, r.table_heap_bytes);

  const std::vector<ScalingRow> scaling = run_scaling_matrix(smoke);
  for (const ScalingRow& r : scaling)
    std::printf(
        "[engine scaling t=%d  ] %7.2f Mev/s | speedup %.2fx | barrier stall %.3f | "
        "imbalance %.2f\n",
        r.threads, r.meps, r.speedup, r.barrier_stall_frac, r.lane_imbalance);

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"benchmark\": \"bench_micro_engine\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n  \"hold\": %zu,\n  \"mixes\": [\n", smoke ? "true" : "false",
                 hold);
    for (std::size_t i = 0; i < std::size(kMixes); ++i) {
      const MixResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"events\": %llu, \"heap_meps\": %.3f, "
                   "\"calendar_meps\": %.3f, \"speedup\": %.3f}%s\n",
                   r.name, static_cast<unsigned long long>(r.events), r.heap_meps, r.calendar_meps,
                   r.speedup, i + 1 < std::size(kMixes) ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"routing\": {\"profiler\": false, \"congestion\": \"skewed\", \"rows\": [\n");
    for (std::size_t i = 0; i < routing.size(); ++i) {
      const RoutingRow& r = routing[i];
      std::fprintf(f,
                   "    {\"topo\": \"%s\", \"kind\": \"%s\", \"ns_per_call\": %.1f, "
                   "\"table_heap_bytes\": %zu}%s\n",
                   r.topo, to_string(r.kind), r.ns_per_call, r.table_heap_bytes,
                   i + 1 < routing.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
    std::fprintf(f, "  \"scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const ScalingRow& r = scaling[i];
      std::fprintf(f,
                   "    {\"threads\": %d, \"events\": %llu, \"meps\": %.3f, \"speedup\": %.3f, "
                   "\"barrier_stall_frac\": %.4f, \"lane_imbalance\": %.3f}%s\n",
                   r.threads, static_cast<unsigned long long>(r.events), r.meps, r.speedup,
                   r.barrier_stall_frac, r.lane_imbalance, i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    for (const JsonMember& m : kept) std::fprintf(f, "  %s,\n", m.text.c_str());
    std::fprintf(f, "  \"host_cores\": %u\n", std::thread::hardware_concurrency());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (smoke) {
    // Loose gates (wall-clock noise, shared CI runners); the recorded JSON
    // carries the precise numbers. A calendar queue slower than the heap it
    // replaced is a regression worth failing the build for.
    int rc = 0;
    if (results[0].speedup < 1.3) {
      std::fprintf(stderr, "FAIL: monotonic-mix speedup %.2fx < 1.3x\n", results[0].speedup);
      rc = 1;
    }
    if (results[1].speedup < 0.7) {
      std::fprintf(stderr, "FAIL: backoff-heavy-mix speedup %.2fx < 0.7x\n", results[1].speedup);
      rc = 1;
    }
    return rc;
  }
  return 0;
}

}  // namespace
}  // namespace dfly

int main(int argc, char** argv) {
  bool smoke = false;
  bool harness_only = false;
  std::string out_path = "BENCH_engine.json";
  int gargc = 0;
  std::vector<char*> gargv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--harness-only") == 0) {
      harness_only = true;  // full-size harness + JSON, skip the gbench suite
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      gargv.push_back(argv[i]);
      ++gargc;
    }
  }

  const int rc = dfly::run_harness(smoke, out_path);
  if (smoke || harness_only || rc != 0) return rc;

  benchmark::Initialize(&gargc, gargv.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, gargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
