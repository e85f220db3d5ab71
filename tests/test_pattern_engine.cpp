// Pattern-engine contract tests.
//
// The centerpiece is the golden-severity regression: the fixture
// tests/golden/seed_severities.txt freezes the severity cubes the
// PRE-engine hardwired wait-state layer produced for the seed workloads
// (exact %a hexfloat values, generated from the pre-refactor binaries).
// The engine must reproduce every cell BIT-IDENTICALLY — serial and
// parallel, at worker counts 1/2/8 — when running the legacy detector
// selection, and must leave every non-category cell untouched when the
// new Completion detectors are enabled on top.
//
// The workload constructions below (cross_topo/local_topo/
// random_program/make_traces) must stay in sync with the generator that
// produced the fixture; regenerate the fixture if they change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/wait_rules.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simnet/presets.hpp"
#include "telemetry/metrics.hpp"
#include "tracing/matching.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::analysis {
namespace {

using tracing::EventType;

// --- workload constructions (in sync with the fixture generator) ---------

simnet::Topology cross_topo() {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  simnet::MetahostSpec b = a;
  b.name = "B";
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{1000e-6, 0.0, 1e9});
  topo.place_block(ia, 1, 1);
  topo.place_block(ib, 1, 1);
  return topo;
}

simnet::Topology local_topo(int n) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = n;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, n, 1);
  return topo;
}

simmpi::Program random_program(int nranks, std::uint64_t seed, int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    const int kind = static_cast<int>(rng.uniform_index(5));
    switch (kind) {
      case 0: {
        const Rank a = static_cast<Rank>(rng.uniform_index(nranks));
        Rank c = static_cast<Rank>(rng.uniform_index(nranks - 1));
        if (c >= a) ++c;
        const double bytes = rng.uniform(16.0, 200000.0);
        b.on(a).enter("chat").send(c, s, bytes).exit();
        b.on(c).enter("chat").recv(a, s).exit();
        break;
      }
      case 1: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(256.0);
        break;
      }
      case 3: {
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.005));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 512.0);
        }
        break;
      }
      default: {
        std::vector<int> reqs(static_cast<std::size_t>(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          auto& c = b.on(r);
          c.enter("shift");
          reqs[static_cast<std::size_t>(r)] =
              c.irecv((r + nranks - 1) % nranks, 7777 + s);
          c.send((r + 1) % nranks, 7777 + s, 1024.0);
          c.wait(reqs[static_cast<std::size_t>(r)]);
          c.exit();
        }
        break;
      }
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

tracing::TraceCollection make_traces(const simnet::Topology& topo,
                                     const simmpi::Program& prog,
                                     bool skewed) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = !skewed;
  cfg.measurement.scheme = skewed ? tracing::SyncScheme::HierarchicalTwo
                                  : tracing::SyncScheme::None;
  auto data = workloads::run_experiment(topo, prog, cfg);
  if (skewed) clocksync::synchronize(data.traces);
  return std::move(data.traces);
}

tracing::TraceCollection seed_workload(const std::string& name) {
  if (name == "late-sender-cross")
    return make_traces(cross_topo(), workloads::late_sender_program(0.25),
                       false);
  if (name == "late-sender-local")
    return make_traces(local_topo(2), workloads::late_sender_program(0.25),
                       false);
  if (name == "late-receiver-cross")
    return make_traces(cross_topo(),
                       workloads::late_receiver_program(0.3, 1 << 20), false);
  if (name == "wait-nxn-local")
    return make_traces(local_topo(4),
                       workloads::wait_nxn_program({0.0, 0.1, 0.2, 0.4}),
                       false);
  if (name == "wait-nxn-cross")
    return make_traces(cross_topo(), workloads::wait_nxn_program({0.0, 0.5}),
                       false);
  if (name == "wait-barrier-local")
    return make_traces(local_topo(4),
                       workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}),
                       false);
  if (name == "early-reduce-local")
    return make_traces(local_topo(4),
                       workloads::early_reduce_program({0.0, 0.2, 0.5, 0.1}),
                       false);
  if (name == "late-broadcast-local")
    return make_traces(local_topo(4),
                       workloads::late_broadcast_program(4, 0.35), false);
  if (name == "random-viola") {
    const auto topo = simnet::make_viola_experiment1();
    return make_traces(topo, random_program(topo.num_ranks(), 1, 12), true);
  }
  if (name == "metatrace-viola") {
    const auto topo = simnet::make_viola_experiment1();
    return make_traces(topo, workloads::build_metatrace(), true);
  }
  ADD_FAILURE() << "unknown seed workload " << name;
  return {};
}

// --- fixture parsing -----------------------------------------------------

/// (metric name | call path | rank) -> exact severity.
using RowMap = std::map<std::string, double>;

std::map<std::string, RowMap> load_golden() {
  std::map<std::string, RowMap> out;
  std::ifstream in(MSC_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "missing fixture " << MSC_GOLDEN_FILE;
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("workload ", 0) == 0) {
      current = line.substr(9);
      out[current];
      continue;
    }
    // "<metric> | <path> | <rank> <hexfloat>"
    const std::size_t last_sep = line.rfind(" | ");
    if (last_sep == std::string::npos) {
      ADD_FAILURE() << "malformed fixture row: " << line;
      continue;
    }
    const std::string key_prefix = line.substr(0, last_sep);
    std::istringstream tail(line.substr(last_sep + 3));
    int rank = -1;
    std::string hex;
    tail >> rank >> hex;
    const double v = std::strtod(hex.c_str(), nullptr);
    out[current][key_prefix + " | " + std::to_string(rank)] = v;
  }
  EXPECT_EQ(out.size(), 10u);
  return out;
}

const std::map<std::string, RowMap>& golden() {
  static const std::map<std::string, RowMap> g = load_golden();
  return g;
}

RowMap cube_rows(const report::Cube& cube) {
  RowMap rows;
  for (MetricId m : cube.metrics.preorder()) {
    const std::string& metric = cube.metrics.def(m).name;
    for (CallPathId c : cube.calls.preorder()) {
      const std::string path = cube.calls.path_string(c, cube.regions);
      for (Rank r = 0; r < cube.num_ranks(); ++r) {
        const double v = cube.get(m, c, r);
        if (v == 0.0) continue;
        rows[metric + " | " + path + " | " + std::to_string(r)] = v;
      }
    }
  }
  return rows;
}

/// The detector selection matching the pre-engine hardwired layer
/// (everything that existed before the Completion patterns).
std::vector<std::string> legacy_patterns() {
  return {"late_sender",    "late_receiver", "early_reduce",
          "late_broadcast", "wait_nxn",      "wait_barrier"};
}

/// Bit-exact row comparison in both directions.
void expect_rows_identical(const RowMap& expected, const RowMap& got,
                           const std::string& label) {
  for (const auto& [key, v] : expected) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << label << ": missing row " << key;
      continue;
    }
    EXPECT_EQ(it->second, v) << label << ": " << key;
  }
  for (const auto& [key, v] : got)
    EXPECT_TRUE(expected.count(key)) << label << ": unexpected row " << key
                                     << " = " << v;
}

// --- golden regression ---------------------------------------------------

class GoldenWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenWorkloads, SerialLegacySelectionBitIdentical) {
  const std::string name = GetParam();
  const auto tc = seed_workload(name);
  ReplayOptions opts;
  opts.patterns = legacy_patterns();
  const auto res = analyze_serial(tc, opts);
  expect_rows_identical(golden().at(name), cube_rows(res.cube),
                        name + " serial");
}

TEST_P(GoldenWorkloads, ParallelLegacySelectionBitIdenticalAtEachWorkerCount) {
  const std::string name = GetParam();
  const auto tc = seed_workload(name);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ReplayOptions opts;
    opts.patterns = legacy_patterns();
    opts.max_workers = workers;
    const auto res = analyze_parallel(tc, opts);
    expect_rows_identical(golden().at(name), cube_rows(res.cube),
                          name + " parallel w=" + std::to_string(workers));
  }
}

TEST_P(GoldenWorkloads, CompletionDetectorsPerturbOnlyTheirCategories) {
  // Default (all detectors on): every pre-existing pattern cell must
  // stay bit-identical; only the Collective / Synchronization category
  // cells may change (Completion moves time out of them).
  const std::string name = GetParam();
  const auto tc = seed_workload(name);
  const auto res = analyze_serial(tc);
  const RowMap got = cube_rows(res.cube);
  const RowMap& gold = golden().at(name);
  for (const auto& [key, v] : gold) {
    if (key.rfind("Collective | ", 0) == 0 ||
        key.rfind("Synchronization | ", 0) == 0)
      continue;
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << name << ": all-on run lost row " << key;
      continue;
    }
    EXPECT_EQ(it->second, v) << name << " all-on: " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenWorkloads,
    ::testing::Values("late-sender-cross", "late-sender-local",
                      "late-receiver-cross", "wait-nxn-local",
                      "wait-nxn-cross", "wait-barrier-local",
                      "early-reduce-local", "late-broadcast-local",
                      "random-viola", "metatrace-viola"));

// --- completion patterns -------------------------------------------------

TEST(CompletionPatterns, BarrierCompletionFiresOnStaggeredEntry) {
  const auto tc = make_traces(
      local_topo(4), workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}),
      false);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  // Everyone but the last arriver (rank 0) drains the barrier after the
  // last arrival: completion severity is positive at ranks 1..3, zero at
  // the last arriver.
  EXPECT_GT(res.cube.metric_total(ps.barrier_completion), 0.0);
  EXPECT_EQ(res.cube.rank_inclusive_total(ps.barrier_completion, 0), 0.0);
  for (Rank r = 1; r < 4; ++r)
    EXPECT_GT(res.cube.rank_inclusive_total(ps.barrier_completion, r), 0.0)
        << "rank " << r;
  // Local communicator: the grid child stays empty.
  EXPECT_EQ(res.cube.metric_total(ps.grid_barrier_completion), 0.0);
  // Completion is bounded by the wait-free remainder of the dwell:
  // wait + completion never exceeds Synchronization's base time.
  EXPECT_GE(res.cube.metric_total(ps.synchronization), -1e-12);
}

TEST(CompletionPatterns, NxNCompletionGridVariant) {
  const auto tc = make_traces(cross_topo(),
                              workloads::wait_nxn_program({0.0, 0.5}), false);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  EXPECT_GT(res.cube.metric_total(ps.grid_nxn_completion), 0.0);
  EXPECT_EQ(res.cube.metric_total(ps.nxn_completion), 0.0);
  // Rank 0 entered first, so only it has completion wait.
  EXPECT_GT(res.cube.rank_inclusive_total(ps.grid_nxn_completion, 0), 0.0);
  EXPECT_EQ(res.cube.rank_inclusive_total(ps.grid_nxn_completion, 1), 0.0);
}

TEST(CompletionPatterns, DisableDoesNotPerturbOtherSeverities) {
  const auto tc = make_traces(
      local_topo(4), workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}),
      false);
  const auto all_on = analyze_serial(tc);
  ReplayOptions opts;
  opts.patterns = legacy_patterns();
  const auto legacy = analyze_serial(tc, opts);
  // Every metric that exists in both trees except the touched
  // categories must be bit-identical.
  const RowMap a = cube_rows(all_on.cube);
  const RowMap b = cube_rows(legacy.cube);
  for (const auto& [key, v] : b) {
    if (key.rfind("Collective | ", 0) == 0 ||
        key.rfind("Synchronization | ", 0) == 0)
      continue;
    const auto it = a.find(key);
    ASSERT_NE(it, a.end()) << key;
    EXPECT_EQ(it->second, v) << key;
  }
}

TEST(CompletionPatterns, SeverityStaysAPartitionOfTotalTime) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc =
      make_traces(topo, random_program(topo.num_ranks(), 5, 12), false);
  const auto res = analyze_serial(tc);
  double partition = 0.0;
  for (std::size_t m = 0; m < res.cube.metrics.size(); ++m)
    partition += res.cube.metric_total(MetricId{static_cast<int>(m)});
  double span = 0.0;
  for (const auto& t : tc.ranks)
    span += t.events.back().time - t.events.front().time;
  EXPECT_NEAR(partition, span, 1e-6 * span + 1e-9);
  // With the Completion detectors enabled, inclusive severities stay
  // non-negative everywhere.
  for (std::size_t m = 0; m < res.cube.metrics.size(); ++m)
    EXPECT_GE(res.cube.metric_inclusive_total(MetricId{static_cast<int>(m)}),
              -1e-9)
        << res.cube.metrics.def(MetricId{static_cast<int>(m)}).name;
}

// --- edge cases ----------------------------------------------------------

TEST(CompletionFormula, ZeroSimultaneousAndClampedCases) {
  CollMember m;
  // Member that arrived last (or tied): no completion.
  m.enter = 3.0;
  m.exit = 5.0;
  EXPECT_EQ(collective_completion_wait(3.0, m), 0.0);
  EXPECT_EQ(collective_completion_wait(2.0, m), 0.0);  // arrived after last
  // Early arriver: drains from last arrival to its exit.
  m.enter = 0.0;
  m.exit = 5.0;
  EXPECT_DOUBLE_EQ(collective_completion_wait(3.0, m), 2.0);
  // Zero-duration op: nothing to drain.
  m.enter = 3.0;
  m.exit = 3.0;
  EXPECT_EQ(collective_completion_wait(3.0, m), 0.0);
  // Exit before the last arrival (possible under residual clock error):
  // clamped to zero, never negative.
  m.enter = 0.0;
  m.exit = 2.0;
  EXPECT_EQ(collective_completion_wait(3.0, m), 0.0);
}

/// Hand-built two-rank collection: one barrier-like collective on the
/// `world` communicator with fully controlled timestamps.
tracing::TraceCollection hand_built_collective(const std::string& region,
                                               double enter0, double enter1,
                                               double coll_exit) {
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  const RegionId main_r = tc.defs.regions.intern("main");
  const RegionId coll_r = tc.defs.regions.intern(region);
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  for (Rank r = 0; r < 2; ++r)
    tc.defs.locations.push_back({MetahostId{0}, NodeId{r}, r, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0, 1}});
  const double enters[2] = {enter0, enter1};
  for (Rank r = 0; r < 2; ++r) {
    tracing::LocalTrace t;
    t.rank = r;
    tracing::Event e;
    e.type = EventType::Enter;
    e.time = 0.0;
    e.region = main_r;
    t.events.push_back(e);
    e.time = enters[r];
    e.region = coll_r;
    t.events.push_back(e);
    tracing::Event x;
    x.type = EventType::CollExit;
    x.time = coll_exit;
    x.region = coll_r;
    x.comm = CommId{0};
    x.root = kNoRank;
    t.events.push_back(x);
    tracing::Event out;
    out.type = EventType::Exit;
    out.time = coll_exit + 0.1;
    t.events.push_back(out);
    tc.ranks.push_back(std::move(t));
  }
  return tc;
}

TEST(PatternEdgeCases, SimultaneousEntryCollectiveEmitsZeroEverywhere) {
  const auto tc = hand_built_collective("MPI_Barrier", 0.1, 0.1, 0.3);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  EXPECT_EQ(res.cube.metric_total(ps.wait_barrier), 0.0);
  EXPECT_EQ(res.cube.metric_total(ps.barrier_completion), 0.0);
  // The full dwell stays base synchronization time.
  EXPECT_DOUBLE_EQ(res.cube.metric_total(ps.synchronization), 0.4);
}

TEST(PatternEdgeCases, ZeroDurationCollectiveEmitsZeroNeverNegative) {
  const auto tc = hand_built_collective("MPI_Allreduce", 0.1, 0.1, 0.1);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  EXPECT_EQ(res.cube.metric_total(ps.wait_nxn), 0.0);
  EXPECT_EQ(res.cube.metric_total(ps.nxn_completion), 0.0);
  for (MetricId m : res.cube.metrics.preorder())
    for (CallPathId c : res.cube.calls.preorder())
      for (Rank r = 0; r < res.cube.num_ranks(); ++r)
        EXPECT_GE(res.cube.get(m, c, r), 0.0)
            << res.cube.metrics.def(m).name;
}

TEST(PatternEdgeCases, StaggeredEntrySplitsWaitAndCompletionExactly) {
  // rank 0 enters at 0.0, rank 1 at 0.05, both leave at 0.08:
  // wait(rank0) = 0.05, completion(rank0) = 0.03, rank 1 gets nothing,
  // and the Collective category cell drains to exactly zero for rank 0.
  const auto tc = hand_built_collective("MPI_Allreduce", 0.0, 0.05, 0.08);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  EXPECT_DOUBLE_EQ(res.cube.rank_inclusive_total(ps.wait_nxn, 0), 0.05);
  EXPECT_DOUBLE_EQ(res.cube.rank_inclusive_total(ps.nxn_completion, 0),
                   0.08 - 0.05);
  EXPECT_EQ(res.cube.rank_inclusive_total(ps.wait_nxn, 1), 0.0);
  EXPECT_EQ(res.cube.rank_inclusive_total(ps.nxn_completion, 1), 0.0);
}

TEST(PatternEdgeCases, SingleMemberCommunicatorCollectiveIsAllBaseTime) {
  auto tc = hand_built_collective("MPI_Barrier", 0.1, 0.1, 0.3);
  // Re-aim rank 0's collective at a single-member communicator and drop
  // rank 1's barrier so instance counts stay consistent.
  tc.defs.comms.push_back({CommId{1}, "solo", {0}});
  for (auto& e : tc.ranks[0].events)
    if (e.type == EventType::CollExit) e.comm = CommId{1};
  auto& ev1 = tc.ranks[1].events;
  ev1.erase(ev1.begin() + 1, ev1.begin() + 3);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  EXPECT_EQ(res.cube.metric_total(ps.wait_barrier), 0.0);
  EXPECT_EQ(res.cube.metric_total(ps.barrier_completion), 0.0);
  EXPECT_EQ(res.stats.collective_instances, 1u);
}

TEST(PatternEdgeCases, SelfMessageAnalyzesCleanly) {
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  const RegionId main_r = tc.defs.regions.intern("main");
  const RegionId send_r = tc.defs.regions.intern("MPI_Send");
  const RegionId recv_r = tc.defs.regions.intern("MPI_Recv");
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  tc.defs.locations.push_back({MetahostId{0}, NodeId{0}, 0, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0}});
  tracing::LocalTrace t;
  t.rank = 0;
  auto push = [&](EventType type, double time, RegionId region) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.region = region;
    if (type == EventType::Send || type == EventType::Recv) {
      e.peer = 0;
      e.tag = 1;
      e.comm = CommId{0};
    }
    t.events.push_back(e);
  };
  push(EventType::Enter, 0.0, main_r);
  push(EventType::Enter, 0.1, send_r);
  push(EventType::Send, 0.1, RegionId{});
  push(EventType::Exit, 0.2, RegionId{});
  push(EventType::Enter, 0.3, recv_r);
  push(EventType::Recv, 0.35, RegionId{});
  push(EventType::Exit, 0.4, RegionId{});
  push(EventType::Exit, 0.5, RegionId{});
  tc.ranks.push_back(std::move(t));
  const auto res = analyze_serial(tc);
  EXPECT_EQ(res.stats.messages, 1u);
  // Receive was posted after the send completed: no wait either way.
  EXPECT_EQ(res.cube.metric_inclusive_total(res.patterns.late_sender), 0.0);
  EXPECT_EQ(res.cube.metric_inclusive_total(res.patterns.late_receiver),
            0.0);
}

// --- selection plumbing --------------------------------------------------

TEST(PatternSelection, UnknownKeyThrowsThroughAnalyzerOptions) {
  const auto tc =
      make_traces(local_topo(2), workloads::late_sender_program(0.1), false);
  ReplayOptions opts;
  opts.patterns = {"late_sendr"};
  EXPECT_THROW(analyze_serial(tc, opts), Error);
  EXPECT_THROW(analyze_parallel(tc, opts), Error);
}

TEST(PatternSelection, DisabledPatternAbsentFromTree) {
  const auto tc =
      make_traces(local_topo(2), workloads::late_sender_program(0.1), false);
  ReplayOptions opts;
  opts.patterns = {"late_sender"};
  const auto res = analyze_serial(tc, opts);
  EXPECT_TRUE(res.patterns.late_sender.valid());
  EXPECT_FALSE(res.patterns.late_receiver.valid());
  EXPECT_FALSE(res.cube.metrics.contains("Late Receiver"));
  EXPECT_FALSE(res.cube.metrics.contains("Barrier Completion"));
  // The category skeleton is always present.
  EXPECT_TRUE(res.cube.metrics.contains("Synchronization"));
}

// --- extensibility -------------------------------------------------------

/// A detector a downstream tool might add: attributes each receive op's
/// dwell as its own metric under Point-to-point.
class RecvDwellDetector final : public PatternDetector {
 public:
  [[nodiscard]] const DetectorSpec& spec() const override {
    static const DetectorSpec s{
        "recv_dwell",
        MetricNodeSpec{"Recv Dwell", "Total receive-operation dwell",
                       "Point-to-point", "", ""},
        kOnP2p};
    return s;
  }

  void p2p_matched(const P2pCtx& ctx, PatternSink& sink) override {
    sink.severity(metric_, category_, ctx.recv->cnode, ctx.recv->rank,
                  ctx.recv->op_exit - ctx.recv->op_enter,
                  ctx.defs->metahost_of(ctx.recv->rank),
                  ctx.defs->metahost_of(ctx.send->rank));
  }
};

TEST(PatternExtensibility, CustomDetectorRunsThroughPublicEngineApi) {
  const auto tc =
      make_traces(local_topo(2), workloads::late_sender_program(0.2), false);
  const PreparedTrace prep = prepare(tc, 1);
  PatternRegistry registry = PatternRegistry::standard();
  registry.add(std::make_unique<RecvDwellDetector>());
  registry.select({"recv_dwell"});
  report::Cube cube;
  PatternEngine engine(registry, cube);
  const PatternSet ps = engine.install(tc, prep);
  EXPECT_TRUE(cube.metrics.contains("Recv Dwell"));
  // Built-ins were deselected; only the custom detector (and the
  // structural partition) run.
  EXPECT_FALSE(ps.late_sender.valid());

  const auto pairs = tracing::match_messages(tc);
  const auto op_at = [&](const tracing::EventRef& ev) {
    for (const OpRecord& op : prep.ops[static_cast<std::size_t>(ev.rank)])
      if (op.index == ev.index) return op;
    return OpRecord{};
  };
  std::vector<P2pRecord> p2p;
  for (const auto& p : pairs)
    p2p.push_back(P2pRecord{make_side(prep.calls, p.send.rank, op_at(p.send)),
                            make_side(prep.calls, p.recv.rank, op_at(p.recv))});
  AnalysisStats stats;
  engine.dispatch(std::move(p2p), group_collectives(tc, prep), stats);
  EXPECT_EQ(stats.messages, 1u);
  const MetricId dwell = cube.metrics.find("Recv Dwell");
  // The receiver waited ~0.2 s inside MPI_Recv, so its dwell is at
  // least that.
  EXPECT_GT(cube.metric_total(dwell), 0.19);
}

// --- telemetry -----------------------------------------------------------

TEST(PatternTelemetry, PerPatternCountersTallied) {
  telemetry::Registry::instance().reset();
  const auto tc =
      make_traces(local_topo(2), workloads::late_sender_program(0.25), false);
  const auto res = analyze_serial(tc);
  EXPECT_GT(telemetry::counter("analysis.pattern.late_sender.hits").value(),
            0u);
  EXPECT_NEAR(
      telemetry::dcounter("analysis.pattern.late_sender.seconds").value(),
      res.cube.metric_inclusive_total(res.patterns.late_sender), 1e-12);
  // Enabled patterns that never fired are still registered, at zero.
  EXPECT_EQ(
      telemetry::counter("analysis.pattern.barrier_completion.hits").value(),
      0u);
}

}  // namespace
}  // namespace metascope::analysis
