// Telemetry registry + span tree: counter/gauge/histogram semantics,
// stable handles, deterministic JSON snapshots that round-trip through
// common/json, exact totals under multi-threaded increments, nesting of
// RAII spans, the runtime disable switch, and the end-to-end pipeline
// contract — the registry counters must agree with AnalysisStats and a
// full run must leave spans for all six pipeline stages.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "clocksync/correction.hpp"
#include "report/render.hpp"
#include "simnet/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"
#include "workloads/clockbench.hpp"
#include "workloads/experiment.hpp"

namespace metascope::telemetry {
namespace {

// Each test starts from a zeroed registry; names are process-global.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();
  }
};

TEST_F(TelemetryTest, CounterAddsAndResets) {
  Counter& c = counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, HandlesAreStablePerName) {
  EXPECT_EQ(&counter("t.same"), &counter("t.same"));
  EXPECT_NE(&counter("t.same"), &counter("t.other"));
  EXPECT_EQ(&gauge("t.g"), &gauge("t.g"));
  EXPECT_EQ(&histogram("t.h", {1.0, 2.0}), &histogram("t.h", {1.0, 2.0}));
}

TEST_F(TelemetryTest, GaugeSetAndRunningMax) {
  Gauge& g = gauge("t.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.max(3.0);
  g.max(2.0);  // lower: must not regress
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST_F(TelemetryTest, HistogramBucketsCountSumMax) {
  Histogram& h = histogram("t.hist", {1.0, 10.0, 100.0});
  for (double v : {0.5, 1.0, 5.0, 50.0, 500.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  // upper_bound semantics: a value equal to a bound goes in that bucket.
  EXPECT_EQ(s.counts[0], 2u);  // 0.5, 1.0 <= 1.0
  EXPECT_EQ(s.counts[1], 1u);  // 5.0
  EXPECT_EQ(s.counts[2], 1u);  // 50.0
  EXPECT_EQ(s.counts[3], 1u);  // 500.0 overflow
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 556.5);
  EXPECT_DOUBLE_EQ(s.max, 500.0);
}

TEST_F(TelemetryTest, DisabledRecordsNothing) {
  Counter& c = counter("t.disabled");
  Histogram& h = histogram("t.disabled_h", {1.0});
  set_enabled(false);
  c.add(7);
  gauge("t.disabled_g").set(9.0);
  h.observe(0.5);
  {
    ScopedSpan span("t.disabled_span");
  }
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge("t.disabled_g").value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_FALSE(span_tree_json().has("t.disabled_span"));
}

TEST_F(TelemetryTest, ConcurrentIncrementsAreExact) {
  Counter& c = counter("t.mt");
  Histogram& h = histogram("t.mt_h", {4.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.observe(static_cast<double>(t));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  // Threads 0..4 observe <= 4.0, threads 5..7 overflow.
  EXPECT_EQ(s.counts[0], 5u * kIters);
  EXPECT_EQ(s.counts[1], 3u * kIters);
}

TEST_F(TelemetryTest, DoubleCounterAccumulatesAcrossThreads) {
  DoubleCounter& d = dcounter("t.dc");
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) d.add(0.25);
    });
  }
  for (auto& th : pool) th.join();
  // 0.25 is exactly representable: the sharded sum is exact.
  EXPECT_DOUBLE_EQ(d.value(), 0.25 * kThreads * kIters);
  d.reset();
  EXPECT_EQ(d.value(), 0.0);
}

TEST_F(TelemetryTest, SpansNestAndAggregate) {
  {
    ScopedSpan outer("t.outer");
    {
      ScopedSpan inner("t.inner");
    }
    {
      ScopedSpan inner("t.inner");
    }
  }
  {
    ScopedSpan other("t.inner");  // same name, but top-level this time
  }
  const Json tree = span_tree_json();
  ASSERT_TRUE(tree.has("t.outer"));
  const Json& outer = tree.at("t.outer");
  EXPECT_EQ(outer.at("count").as_int(), 1);
  ASSERT_TRUE(outer.has("children"));
  EXPECT_EQ(outer.at("children").at("t.inner").at("count").as_int(), 2);
  // The top-level t.inner is a distinct node from the nested one.
  EXPECT_EQ(tree.at("t.inner").at("count").as_int(), 1);
  EXPECT_GE(outer.at("total_s").as_number(),
            outer.at("children").at("t.inner").at("total_s").as_number());
}

TEST_F(TelemetryTest, SnapshotRoundTripsThroughJson) {
  counter("t.rt").add(3);
  dcounter("t.rt_d").add(1.25);
  gauge("t.rt_g").set(1.5);
  histogram("t.rt_h", {1.0, 2.0}).observe(1.5);
  {
    ScopedSpan span("t.rt_span");
  }
  const Json snap = snapshot_json();
  EXPECT_TRUE(snap.has("counters"));
  EXPECT_TRUE(snap.has("dcounters"));
  EXPECT_TRUE(snap.has("gauges"));
  EXPECT_TRUE(snap.has("histograms"));
  EXPECT_TRUE(snap.has("spans"));
  // Deterministic: same state serializes identically, and the document
  // survives a parse/dump cycle byte for byte.
  EXPECT_EQ(snap.dump(2), snapshot_json().dump(2));
  EXPECT_EQ(Json::parse(snap.dump(2)), snap);
  EXPECT_EQ(Json::parse(snap.dump(2)).dump(2), snap.dump(2));
  EXPECT_EQ(snap.at("counters").at("t.rt").as_int(), 3);
}

// --- end-to-end: registry vs AnalysisStats, six pipeline stages --------

TEST_F(TelemetryTest, PipelineCountersMatchAnalysisStatsAndAllStagesSpan) {
  const auto topo = simnet::make_viola_experiment1();
  workloads::ClockBenchConfig bc;
  bc.rounds = 30;
  const auto prog = workloads::build_clock_bench(topo.num_ranks(), bc);
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;

  auto data = workloads::run_experiment(topo, prog, cfg);  // simulate+trace
  clocksync::synchronize(data.traces);                     // sync
  const auto res = analysis::analyze_parallel(data.traces);  // prepare+replay
  const std::string rendered = report::render_report(res.cube);  // report
  EXPECT_FALSE(rendered.empty());

  // The per-run stats are deltas of these counters; with a freshly reset
  // registry the absolute values must agree exactly.
  EXPECT_EQ(counter("analysis.messages").value(), res.stats.messages);
  EXPECT_EQ(counter("analysis.events").value(), res.stats.events);
  EXPECT_EQ(counter("replay.bytes").value(), res.stats.replay_bytes);

  const Json spans = snapshot_json().at("spans");
  for (const char* stage :
       {"simulate", "trace", "sync", "prepare", "replay", "report"}) {
    ASSERT_TRUE(spans.has(stage)) << "missing pipeline stage span: " << stage;
    EXPECT_GE(spans.at(stage).at("count").as_int(), 1) << stage;
  }
}

}  // namespace
}  // namespace metascope::telemetry
