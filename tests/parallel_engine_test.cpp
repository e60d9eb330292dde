// Differential serial-vs-parallel suite for the sharded engine (DESIGN.md
// §10): a run with [engine] threads=N (N >= 2 workers) must reproduce the
// threads=1 serial-sharded oracle byte-for-byte — end-of-run metrics, the
// counter timeline, the traffic heatmap and the sampled chunk trace — across
// the placement x routing matrix, under fault injection, and through a
// checkpoint written at one thread count and resumed at another. Plus the
// bugfix-sweep regressions that ride along: the bounded Valiant intermediate
// picker, the 32-bit channel-id overflow guard, and counter-based RNG
// streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "routing/valiant.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

Workload par_workload() { return {"ring", make_ring_trace(24, 32 * units::kKiB, 2)}; }

ExperimentOptions par_options(const std::string& telemetry_dir, int threads) {
  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.seed = 11;
  o.threads = threads;
  o.max_events = 100'000'000;
  o.telemetry.enabled = true;
  o.telemetry.sample_rate = 0.05;
  o.telemetry.snapshot_interval = 20 * units::kMicrosecond;
  o.telemetry.out_dir = temp_path(telemetry_dir);
  return o;
}

void add_faults(ExperimentOptions& o) {
  const DragonflyTopology topo(o.topo);
  Rng rng(5);
  o.faults = random_global_fault_schedule(topo, 0.25, 20 * units::kMicrosecond, rng);
  ASSERT_FALSE(o.faults.empty());
  const FaultEvent& f = o.faults.front();
  o.faults.push_back(FaultEvent::global_up(60 * units::kMicrosecond, f.a, f.b, f.index));
}

/// Runs `config` at the oracle thread count (1) and at each count in
/// `threads`, then requires every exported artifact to match byte-for-byte.
void expect_byte_equal_across_threads(const ExperimentConfig& config, const std::string& tag,
                                      bool with_faults = false,
                                      std::vector<int> threads = {2, 4}) {
  const Workload workload = par_workload();

  ExperimentOptions oracle_opts = par_options(tag + "-t1", 1);
  if (with_faults) add_faults(oracle_opts);
  const ExperimentResult oracle = run_experiment(workload, config, oracle_opts);
  ASSERT_TRUE(oracle.conservation_ok);
  ASSERT_FALSE(oracle.stalled);
  ASSERT_GT(oracle.metrics.events, 0u);
  if (with_faults) {
    ASSERT_GT(oracle.bytes_retransmitted, 0);
  }

  for (const int n : threads) {
    ExperimentOptions opts = par_options(tag + "-t" + std::to_string(n), n);
    if (with_faults) add_faults(opts);
    const ExperimentResult result = run_experiment(workload, config, opts);
    EXPECT_EQ(result.metrics.events, oracle.metrics.events) << "threads=" << n;
    EXPECT_EQ(result.metrics.makespan_ms, oracle.metrics.makespan_ms) << "threads=" << n;
    EXPECT_EQ(result.metrics.comm_time_ms, oracle.metrics.comm_time_ms) << "threads=" << n;
    EXPECT_EQ(result.bytes_dropped, oracle.bytes_dropped) << "threads=" << n;
    EXPECT_EQ(result.bytes_retransmitted, oracle.bytes_retransmitted) << "threads=" << n;
    for (const char* artifact : {"metrics.json", "counters.jsonl", "heatmap.csv", "trace.json"}) {
      const std::string a =
          slurp(oracle_opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
      const std::string b = slurp(opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
      ASSERT_FALSE(a.empty()) << artifact;
      EXPECT_EQ(a, b) << artifact << " differs at threads=" << n << " (config "
                      << config.name() << ")";
    }
  }
}

// --- the placement x routing differential matrix -------------------------

TEST(ParallelEquivalence, ContiguousMinimalIsByteExact) {
  expect_byte_equal_across_threads({PlacementKind::Contiguous, RoutingKind::Minimal}, "par-cm");
}

TEST(ParallelEquivalence, RandomNodeAdaptiveIsByteExact) {
  expect_byte_equal_across_threads({PlacementKind::RandomNode, RoutingKind::Adaptive}, "par-ra");
}

TEST(ParallelEquivalence, ContiguousValiantIsByteExact) {
  expect_byte_equal_across_threads({PlacementKind::Contiguous, RoutingKind::Valiant}, "par-cv");
}

// UGAL-G reads congestion along whole candidate paths — state no shard owns —
// so run_experiment runs it on the engine without shard lanes at every thread
// count: threads=1, threads=2 and threads=0 must all export the same bytes.
TEST(ParallelEquivalence, RemoteCongestionRoutingStaysExactViaSerialFallback) {
  expect_byte_equal_across_threads({PlacementKind::Contiguous, RoutingKind::AdaptiveGlobal},
                                   "par-cg", /*with_faults=*/false, {2, 0});
}

// No run pairs a sharded engine with an unsharded network: the network
// refuses to shard for remote-congestion routing, and a sharded engine whose
// network was never partitioned fails on the first network event.
TEST(ParallelEquivalence, ShardedEngineRequiresAPartitionedNetwork) {
  const DragonflyTopology topo(TopoParams::tiny());
  const NetworkParams params = NetworkParams::theta();
  for (const RoutingKind kind : {RoutingKind::AdaptiveGlobal, RoutingKind::Minimal}) {
    Engine engine;
    ShardingOptions sharding;
    sharding.shards = topo.params().groups;
    sharding.lookahead = params.global_latency;
    engine.enable_sharding(sharding);
    const std::unique_ptr<RoutingAlgorithm> routing = make_routing(kind, topo);
    Network network(engine, topo, params, *routing, Rng(1));
    if (kind == RoutingKind::AdaptiveGlobal) {
      EXPECT_THROW(network.enable_sharding(params.global_latency), std::logic_error);
    }
    EXPECT_THROW(network.send(0, 1, 4096), std::logic_error) << to_string(kind);
  }
}

TEST(ParallelEquivalence, FaultInjectionRunIsByteExact) {
  expect_byte_equal_across_threads({PlacementKind::RandomNode, RoutingKind::Adaptive}, "par-flt",
                                   /*with_faults=*/true, {2});
}

// --- checkpoint/resume under parallelism ---------------------------------

TEST(ParallelEquivalence, CheckpointWrittenAtOneThreadCountResumesAtAnother) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Adaptive};
  const Workload workload = par_workload();

  ExperimentOptions golden_opts = par_options("par-ck-golden", 4);
  const ExperimentResult golden = run_experiment(workload, config, golden_opts);
  const SimTime makespan = static_cast<SimTime>(golden.metrics.makespan_ms * 1e6);
  ASSERT_GT(makespan, 0);

  // Interrupt at threads=2 past the midpoint, resume at threads=4: the
  // snapshot layout is lane-structured but thread-count independent.
  const std::string snapshot = temp_path("par-ck.ckpt");
  ExperimentOptions interrupted_opts = par_options("par-ck-resumed", 2);
  interrupted_opts.checkpoint.interval = makespan / 6 > 0 ? makespan / 6 : 1;
  interrupted_opts.checkpoint.path = snapshot;
  interrupted_opts.checkpoint.stop_after = makespan / 2;
  const ExperimentResult partial = run_experiment(workload, config, interrupted_opts);
  ASSERT_TRUE(partial.stopped_at_checkpoint);
  ASSERT_TRUE(fs::exists(snapshot));

  ExperimentOptions resumed_opts = interrupted_opts;
  resumed_opts.threads = 4;
  resumed_opts.checkpoint.resume = true;
  resumed_opts.checkpoint.stop_after = 0;
  const ExperimentResult resumed = run_experiment(workload, config, resumed_opts);
  EXPECT_EQ(resumed.metrics.events, golden.metrics.events);
  EXPECT_EQ(resumed.metrics.makespan_ms, golden.metrics.makespan_ms);
  EXPECT_EQ(resumed.metrics.comm_time_ms, golden.metrics.comm_time_ms);
  for (const char* artifact : {"metrics.json", "counters.jsonl", "heatmap.csv", "trace.json"}) {
    const std::string g =
        slurp(golden_opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
    const std::string r =
        slurp(resumed_opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
    ASSERT_FALSE(g.empty()) << artifact;
    EXPECT_EQ(g, r) << artifact << " differs after cross-thread-count resume";
  }
  std::remove(snapshot.c_str());
}

TEST(ParallelEquivalence, ShardedSnapshotIsRejectedBySerialEngine) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const Workload workload = par_workload();
  ExperimentOptions opts = par_options("par-mode", 2);
  const ExperimentResult probe = run_experiment(workload, config, opts);
  const SimTime makespan = static_cast<SimTime>(probe.metrics.makespan_ms * 1e6);

  const std::string snapshot = temp_path("par-mode.ckpt");
  ExperimentOptions interrupted = par_options("par-mode-int", 2);
  interrupted.checkpoint.interval = makespan / 4 > 0 ? makespan / 4 : 1;
  interrupted.checkpoint.path = snapshot;
  interrupted.checkpoint.stop_after = makespan / 3;
  ASSERT_TRUE(run_experiment(workload, config, interrupted).stopped_at_checkpoint);

  ExperimentOptions wrong_mode = interrupted;
  wrong_mode.threads = 0;  // an engine without shard lanes cannot adopt a sharded queue
  wrong_mode.checkpoint.resume = true;
  wrong_mode.checkpoint.stop_after = 0;
  EXPECT_THROW(run_experiment(workload, config, wrong_mode), std::runtime_error);
  std::remove(snapshot.c_str());

  // And the reverse: a threads=0 snapshot does not resume sharded.
  ExperimentOptions unsharded = interrupted;
  unsharded.threads = 0;
  ASSERT_TRUE(run_experiment(workload, config, unsharded).stopped_at_checkpoint);
  ExperimentOptions resumed_sharded = unsharded;
  resumed_sharded.threads = 2;
  resumed_sharded.checkpoint.resume = true;
  resumed_sharded.checkpoint.stop_after = 0;
  EXPECT_THROW(run_experiment(workload, config, resumed_sharded), std::runtime_error);
  std::remove(snapshot.c_str());
}

// --- config plumbing -----------------------------------------------------

TEST(ParallelEquivalence, EngineThreadsRoundTripsThroughConfig) {
  ExperimentOptions o;
  o.threads = 3;
  const std::string text = render_config(o);
  EXPECT_NE(text.find("[engine]"), std::string::npos);
  std::istringstream is(text);
  const ExperimentOptions parsed = parse_config(is, ExperimentOptions{});
  EXPECT_EQ(parsed.threads, 3);
}

TEST(ParallelEquivalence, NegativeEngineThreadsIsRejected) {
  std::istringstream is("[engine]\nthreads = -3\n");
  EXPECT_THROW(parse_config(is, ExperimentOptions{}), std::runtime_error);
}

// --- bugfix sweep: bounded Valiant intermediate picker -------------------

TEST(ValiantIntermediate, DegenerateTopologiesTerminateWithMinimalFallback) {
  Rng rng(7);
  // Formerly an infinite rejection loop: with <= 2 routers every draw hits an
  // endpoint. Now it degenerates to the minimal route (via == r_dst).
  EXPECT_EQ(pick_valiant_intermediate(1, 0, 0, rng), 0);
  EXPECT_EQ(pick_valiant_intermediate(2, 0, 1, rng), 1);
  EXPECT_EQ(pick_valiant_intermediate(2, 1, 0, rng), 0);
}

TEST(ValiantIntermediate, SmallestRealTopologyAlwaysPicksTheThirdParty) {
  // With 3 routers exactly one valid intermediate exists; the bounded picker
  // must find it (by draw or by the deterministic fallback scan), never spin.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    const RouterId via = pick_valiant_intermediate(3, 0, 1, rng);
    EXPECT_EQ(via, 2) << "seed " << seed;
  }
}

TEST(ValiantIntermediate, PicksExcludeEndpointsAndCoverTheTable) {
  Rng rng(13);
  std::set<RouterId> seen;
  for (int i = 0; i < 512; ++i) {
    const RouterId via = pick_valiant_intermediate(24, 3, 17, rng);
    ASSERT_NE(via, 3);
    ASSERT_NE(via, 17);
    ASSERT_GE(via, 0);
    ASSERT_LT(via, 24);
    seen.insert(via);
  }
  EXPECT_GT(seen.size(), 16u);  // still samples broadly, not a point mass
}

// --- bugfix sweep: 32-bit channel-id overflow guard ----------------------

TEST(TopoParamsValidate, RejectsChannelSpaceOverflowing32BitIds) {
  // channel id = router * ports_per_router + port must fit an int32; the
  // guard computes in 64-bit so the probe values themselves cannot overflow.
  TopoParams p;
  p.groups = 2;
  p.rows = 10'000;
  p.cols = 10'000;
  p.nodes_per_router = 1;
  p.global_ports_per_router = 1;
  p.chassis_per_cabinet = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(TopoParamsValidate, AcceptsChannelSpaceJustUnderTheBound) {
  TopoParams p;
  p.groups = 2;
  p.rows = 1;
  p.cols = 16'384;  // 32768 routers x 16385 ports ~= 5.4e8 < 2^31 - 1
  p.nodes_per_router = 1;
  p.global_ports_per_router = 1;
  p.chassis_per_cabinet = 1;
  EXPECT_NO_THROW(p.validate());
}

// --- bugfix sweep: counter-based RNG streams -----------------------------

TEST(RngStream, IsDeterministicAndDoesNotAdvanceTheParent) {
  Rng parent(42);
  const auto before = parent.state();
  Rng a = parent.stream(3);
  Rng b = parent.stream(3);
  EXPECT_EQ(parent.state(), before) << "stream() must not mutate the parent";
  EXPECT_EQ(a.next(), b.next()) << "same index must yield the same stream";
}

TEST(RngStream, DistinctIndicesDecorrelate) {
  Rng parent(42);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 64; ++i) firsts.insert(parent.stream(i).next());
  EXPECT_EQ(firsts.size(), 64u);
  // And streams differ from the parent's own output.
  Rng parent2(42);
  EXPECT_NE(parent.stream(0).next(), parent2.next());
}

TEST(RngStream, DiffersAcrossParents) {
  EXPECT_NE(Rng(1).stream(5).next(), Rng(2).stream(5).next());
}

}  // namespace
}  // namespace dfly
