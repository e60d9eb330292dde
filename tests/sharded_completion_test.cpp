// Paper-scale completion of the sharded engine: the three applications of the
// study (CR, FB, AMG at their paper rank counts) on the Theta topology at a
// reduced message scale, at the two extreme configurations (contiguous +
// minimal, random-node + adaptive), must finish every rank with threads=1
// and threads=2 — no stall, chunk conservation intact — and the two thread
// counts must export byte-identical artifacts. Ring and all-to-all traffic on
// the tiny topology (parallel_engine_test.cpp) never opens the window in
// which a message is fully delivered less than one lookahead after its last
// injection; short intra-group paths in these workloads open it constantly.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/experiment.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

constexpr double kScale = 0.05;

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

Workload app_workload(const std::string& app) {
  if (app == "cr") {
    CrParams p;
    p.iterations = 1;
    p.scale = kScale;
    return make_crystal_router(p);
  }
  if (app == "fb") {
    FbParams p;
    p.iterations = 1;
    p.scale = kScale;
    return make_fill_boundary(p);
  }
  AmgParams p;
  p.scale = kScale;
  return make_amg(p);
}

ExperimentOptions sharded_options(int threads, const std::string& out_dir) {
  ExperimentOptions o;
  o.topo = TopoParams::theta();
  o.threads = threads;
  o.max_events = 100'000'000;
  o.telemetry.enabled = true;
  o.telemetry.snapshot_interval = 10 * units::kMicrosecond;
  o.telemetry.out_dir = ::testing::TempDir() + "/" + out_dir;
  return o;
}

void expect_completes_and_matches(const std::string& app, const ExperimentConfig& config) {
  const Workload workload = app_workload(app);
  const int ranks = workload.trace.ranks();
  std::string dirs[2];
  for (const int threads : {1, 2}) {
    const std::string tag = "sharded-" + app + "-" + config.name() + "-t" + std::to_string(threads);
    const ExperimentOptions options = sharded_options(threads, tag);
    dirs[threads - 1] = options.telemetry.out_dir + "/" + config.name();
    // A run that drains with unfinished ranks throws (the deadlock report).
    const ExperimentResult r = run_experiment(workload, config, options);
    EXPECT_FALSE(r.stalled) << tag << "\n" << r.health_report;
    EXPECT_FALSE(r.hit_event_limit) << tag;
    EXPECT_TRUE(r.conservation_ok) << tag;
    ASSERT_EQ(static_cast<int>(r.metrics.comm_time_ms.size()), ranks) << tag;
    for (const double ms : r.metrics.comm_time_ms) ASSERT_GT(ms, 0.0) << tag;
    EXPECT_GT(r.metrics.makespan_ms, 0.0) << tag;
  }
  for (const char* artifact : {"metrics.json", "counters.jsonl", "heatmap.csv", "trace.json"}) {
    const std::string t1 = slurp(dirs[0] + "/" + artifact);
    ASSERT_FALSE(t1.empty()) << artifact;
    EXPECT_EQ(t1, slurp(dirs[1] + "/" + artifact))
        << app << " " << config.name() << ": " << artifact << " differs between threads=1 and 2";
  }
}

const ExperimentConfig kContMin{PlacementKind::Contiguous, RoutingKind::Minimal};
const ExperimentConfig kRandAdp{PlacementKind::RandomNode, RoutingKind::Adaptive};

TEST(ShardedCompletion, CrContMin) { expect_completes_and_matches("cr", kContMin); }
TEST(ShardedCompletion, CrRandAdp) { expect_completes_and_matches("cr", kRandAdp); }
TEST(ShardedCompletion, FbContMin) { expect_completes_and_matches("fb", kContMin); }
TEST(ShardedCompletion, FbRandAdp) { expect_completes_and_matches("fb", kRandAdp); }
TEST(ShardedCompletion, AmgContMin) { expect_completes_and_matches("amg", kContMin); }
TEST(ShardedCompletion, AmgRandAdp) { expect_completes_and_matches("amg", kRandAdp); }

}  // namespace
}  // namespace dfly
