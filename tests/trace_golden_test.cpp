// Golden pins for the flight recorder's trace.json (DESIGN.md §7): CR at the
// paper's two extreme configurations (contiguous + minimal, random-node +
// adaptive) on the Theta topology at a reduced message scale, sampling one
// chunk in twenty.
//
//  * threads=0: FNV-1a hashes of all four run artifacts are pinned, so the
//    serial trace (and everything next to it) is byte-for-byte stable.
//  * threads=2: the trace is pinned as a hop *multiset* — the X events sorted
//    on their full text — so the sharded trace records exactly the pinned
//    hops, whatever their order. The other three artifacts are pinned as
//    bytes.
//  * threads=1 and 2: the X events of the sharded trace appear in
//    non-decreasing "ts" order, and both thread counts write the same bytes.
//
// A v4 snapshot whose header claims format v3 is rejected as an unsupported
// version rather than misparsed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The X (hop) events of a rendered trace.json, each collapsed to one line,
/// in document order. The renderer writes every trace event as an object
/// opening on a line "  {" and closing on a line "  }" or "  },".
std::vector<std::string> x_events(const std::string& doc) {
  std::vector<std::string> events;
  std::string event;
  bool inside = false;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    std::size_t eol = doc.find('\n', pos);
    if (eol == std::string::npos) eol = doc.size();
    const std::string line = doc.substr(pos, eol - pos);
    pos = eol + 1;
    if (!inside) {
      if (line == "  {") {
        inside = true;
        event.clear();
      }
    } else if (line == "  }" || line == "  },") {
      inside = false;
      if (event.find("\"ph\": \"X\"") != std::string::npos) events.push_back(event);
    } else {
      event += line;
    }
  }
  return events;
}

double ts_of(const std::string& event) {
  const std::string key = "\"ts\": ";
  const std::size_t at = event.find(key);
  if (at == std::string::npos) throw std::runtime_error("X event without ts: " + event);
  return std::stod(event.substr(at + key.size()));
}

/// Hash of the hop multiset: the X events sorted on their full text.
std::uint64_t hop_multiset_hash(const std::string& doc) {
  std::vector<std::string> events = x_events(doc);
  std::sort(events.begin(), events.end());
  std::string joined;
  for (const std::string& e : events) joined += e + '\n';
  return fnv1a(joined);
}

Workload cr_workload() {
  CrParams p;
  p.iterations = 1;
  p.scale = 0.05;
  return make_crystal_router(p);
}

/// Runs CR under `config` at `threads` and returns the artifact directory.
std::string run_cr(const ExperimentConfig& config, int threads) {
  ExperimentOptions o;
  o.topo = TopoParams::theta();
  o.threads = threads;
  o.max_events = 100'000'000;
  o.telemetry.enabled = true;
  o.telemetry.sample_rate = 0.05;
  o.telemetry.snapshot_interval = 10 * units::kMicrosecond;
  o.telemetry.out_dir =
      ::testing::TempDir() + "/trace-golden-" + config.name() + "-t" + std::to_string(threads);
  const ExperimentResult r = run_experiment(cr_workload(), config, o);
  EXPECT_TRUE(r.conservation_ok);
  EXPECT_FALSE(r.stalled);
  EXPECT_FALSE(r.hit_event_limit);
  return o.telemetry.out_dir + "/" + config.name();
}

struct Golden {
  std::uint64_t metrics;
  std::uint64_t counters;
  std::uint64_t heatmap;
  std::uint64_t trace;  ///< bytes at threads=0; the hop multiset at threads=2
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void expect_hash(const std::string& what, std::uint64_t actual, std::uint64_t pinned) {
  EXPECT_EQ(hex(actual), hex(pinned)) << what;
}

void expect_serial_golden(const ExperimentConfig& config, const Golden& golden) {
  const std::string dir = run_cr(config, 0);
  const std::string trace = slurp(dir + "/trace.json");
  ASSERT_FALSE(x_events(trace).empty());
  expect_hash("metrics.json", fnv1a(slurp(dir + "/metrics.json")), golden.metrics);
  expect_hash("counters.jsonl", fnv1a(slurp(dir + "/counters.jsonl")), golden.counters);
  expect_hash("heatmap.csv", fnv1a(slurp(dir + "/heatmap.csv")), golden.heatmap);
  expect_hash("trace.json", fnv1a(trace), golden.trace);
}

void expect_ts_order(const std::string& doc, int threads) {
  const std::vector<std::string> events = x_events(doc);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i)
    ASSERT_LE(ts_of(events[i - 1]), ts_of(events[i]))
        << "threads=" << threads << ": X event " << i << " starts before its predecessor";
}

void expect_sharded_golden(const ExperimentConfig& config, const Golden& golden) {
  const std::string dir2 = run_cr(config, 2);
  const std::string trace2 = slurp(dir2 + "/trace.json");
  expect_hash("metrics.json", fnv1a(slurp(dir2 + "/metrics.json")), golden.metrics);
  expect_hash("counters.jsonl", fnv1a(slurp(dir2 + "/counters.jsonl")), golden.counters);
  expect_hash("heatmap.csv", fnv1a(slurp(dir2 + "/heatmap.csv")), golden.heatmap);
  expect_hash("trace.json hop multiset", hop_multiset_hash(trace2), golden.trace);
  expect_ts_order(trace2, 2);

  const std::string trace1 = slurp(run_cr(config, 1) + "/trace.json");
  expect_ts_order(trace1, 1);
  EXPECT_EQ(trace1, trace2) << "trace.json differs between threads=1 and 2";
}

const ExperimentConfig kContMin{PlacementKind::Contiguous, RoutingKind::Minimal};
const ExperimentConfig kRandAdp{PlacementKind::RandomNode, RoutingKind::Adaptive};

TEST(TraceGolden, CrContMinSerialArtifacts) {
  expect_serial_golden(kContMin, {0x1f3269d5315c74fa, 0xe5684f86955a9fef, 0x309db328d8a2cbb3,
                                  0x7cbd8a0505fcf75d});
}

TEST(TraceGolden, CrRandAdpSerialArtifacts) {
  expect_serial_golden(kRandAdp, {0x5faaacec0317e0b3, 0x2bb2484cff38fe33, 0x9bcd7aac06750162,
                                  0xebb145f40c7d84a2});
}

TEST(TraceGolden, CrContMinShardedHops) {
  expect_sharded_golden(kContMin, {0x9c82a6e44920f130, 0x34ad8d0930055831, 0x1af24945c0003428,
                                   0x82659636fe338e20});
}

TEST(TraceGolden, CrRandAdpShardedHops) {
  expect_sharded_golden(kRandAdp, {0x51d39e96c756c8d2, 0x855cf918b938518f, 0xcff4505768c3c37d,
                                   0x5f4216c7fbe4d6e1});
}

TEST(TraceGolden, V3SnapshotIsRejected) {
  const std::string snapshot = ::testing::TempDir() + "/trace-golden-v3.ckpt";
  const Workload workload{"ring", make_ring_trace(24, 32 * units::kKiB, 2)};
  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.telemetry.enabled = true;
  o.telemetry.sample_rate = 0.05;
  o.telemetry.out_dir = ::testing::TempDir() + "/trace-golden-v3";
  o.checkpoint.interval = 4 * units::kMicrosecond;
  o.checkpoint.path = snapshot;
  o.checkpoint.stop_after = 8 * units::kMicrosecond;
  ASSERT_TRUE(run_experiment(workload, kContMin, o).stopped_at_checkpoint);

  // Rewrite the header's u32 version field (bytes 4..7, little-endian) to 3.
  // The version sits outside the CRC-covered payload, so only the version
  // check can turn the file away.
  std::string bytes = slurp(snapshot);
  ASSERT_GT(bytes.size(), 8u);
  bytes.replace(4, 4, std::string("\x03\x00\x00\x00", 4));
  {
    std::ofstream f(snapshot, std::ios::binary | std::ios::trunc);
    f << bytes;
  }

  o.checkpoint.stop_after = 0;
  o.checkpoint.resume = true;
  try {
    run_experiment(workload, kContMin, o);
    ADD_FAILURE() << "a v3 snapshot was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 3"), std::string::npos)
        << e.what();
  }
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace dfly
