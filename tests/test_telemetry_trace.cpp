// Flight recorder + Chrome-trace exporter + time-resolved sampler:
// ring wrap-around drop accounting, pool lifecycle event pairing, the
// exporter's structural guarantees (balanced B/E per thread track,
// non-decreasing timestamps, explicit drop counts), sampler time series,
// and the versioned snapshot's run-metadata section.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/parallel.hpp"
#include "simmpi/program.hpp"
#include "simnet/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/experiment.hpp"

namespace metascope::telemetry {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();  // retires all rings; threads re-register on next record
    Recorder::instance().configure(Recorder::kDefaultRingCapacity);
    Recorder::instance().set_enabled(true);
  }
  void TearDown() override {
    stop_sampler();
    Recorder::instance().set_enabled(false);
    reset();
  }
};

// --- ring buffer semantics ---------------------------------------------

TEST_F(TraceTest, TinyRingDropsOldestAndCountsThem) {
  Recorder::instance().configure(4);
  for (std::uint32_t i = 0; i < 100; ++i)
    record_event(TraceEventKind::Mark, "wrap", i);
  const auto logs = Recorder::instance().snapshot();
  ASSERT_EQ(logs.size(), 1u);  // only this thread recorded
  EXPECT_EQ(logs[0].events.size(), 4u);
  EXPECT_EQ(logs[0].dropped, 96u);
  // The retained tail is the *newest* events, in order.
  EXPECT_EQ(logs[0].events.front().id, 96u);
  EXPECT_EQ(logs[0].events.back().id, 99u);
}

TEST_F(TraceTest, DisabledRecorderKeepsNothing) {
  Recorder::instance().set_enabled(false);
  record_event(TraceEventKind::Mark, "ignored");
  const auto logs = Recorder::instance().snapshot();
  std::size_t total = 0;
  for (const auto& log : logs) total += log.events.size();
  EXPECT_EQ(total, 0u);
}

TEST_F(TraceTest, ThreadLabelSurvivesRegistration) {
  set_thread_label("test thread");
  record_event(TraceEventKind::Mark, "labeled");
  const auto logs = Recorder::instance().snapshot();
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].label, "test thread");
}

// --- pool lifecycle events ---------------------------------------------

TEST_F(TraceTest, PoolRunPairsEveryTaskBeginWithAnEnd) {
  RecordingObserver obs("stage");
  constexpr std::size_t kTasks = 16;
  parallel_for(
      kTasks, 2,
      [](std::size_t) {
        // enough work that both workers participate
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      },
      &obs);
  std::size_t begins = 0, ends = 0;
  for (const auto& log : Recorder::instance().snapshot()) {
    std::size_t depth = 0;
    for (const TraceEvent& e : log.events) {
      if (e.kind == TraceEventKind::TaskBegin) {
        ++begins;
        ++depth;
      } else if (e.kind == TraceEventKind::TaskEnd) {
        ++ends;
        ASSERT_GT(depth, 0u) << "end without begin on one thread";
        --depth;
      }
    }
    EXPECT_EQ(depth, 0u);
    // Timestamps on one ring are monotone: one writer, steady clock.
    for (std::size_t i = 1; i < log.events.size(); ++i)
      EXPECT_GE(log.events[i].ts_ns, log.events[i - 1].ts_ns);
  }
  EXPECT_EQ(begins, kTasks);
  EXPECT_EQ(ends, kTasks);
}

// --- Chrome trace export -----------------------------------------------

/// Asserts the exporter's structural contract: per thread track, "B"
/// and "E" nest and balance, and timestamps never decrease (metadata
/// "M" events carry no ts and are skipped).
void expect_structurally_valid(const Json& trace) {
  ASSERT_TRUE(trace.has("traceEvents"));
  std::map<std::int64_t, std::size_t> depth;
  std::map<std::int64_t, double> last_ts;
  for (const Json& e : trace.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    const std::int64_t tid = e.at("tid").as_int();
    const double ts = e.at("ts").as_number();
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "ts regressed on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      ASSERT_GT(depth[tid], 0u) << "orphan E on tid " << tid;
      --depth[tid];
    } else {
      EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, d] : depth)
    EXPECT_EQ(d, 0u) << "unclosed B on tid " << tid;
  ASSERT_TRUE(trace.has("otherData"));
  EXPECT_TRUE(trace.at("otherData").has("ring_capacity"));
  EXPECT_TRUE(trace.at("otherData").has("dropped_events"));
  EXPECT_TRUE(trace.at("otherData").has("emitted_events"));
}

TEST_F(TraceTest, FanoutStrideCapsLargeFanouts) {
  // Dense up to 256 items, then every stride-th so ~256 slices survive.
  EXPECT_EQ(RecordingObserver::fanout_stride(1), 1u);
  EXPECT_EQ(RecordingObserver::fanout_stride(256), 1u);
  EXPECT_EQ(RecordingObserver::fanout_stride(257), 2u);
  EXPECT_EQ(RecordingObserver::fanout_stride(1024), 4u);
  EXPECT_LE(4096u / RecordingObserver::fanout_stride(4096), 256u);
}

TEST_F(TraceTest, DecimatedObserverKeepsBeginEndPaired) {
  RecordingObserver obs("stage", 3);
  EXPECT_EQ(obs.item_stride(), 3u);
  for (std::size_t task = 0; task < 10; ++task) {
    obs.on_task_begin(task);
    obs.on_task_end(task);
  }
  const auto logs = Recorder::instance().snapshot();
  ASSERT_EQ(logs.size(), 1u);
  // Only tasks 0, 3, 6, 9 survive, and every begin still has its end.
  ASSERT_EQ(logs[0].events.size(), 8u);
  for (std::size_t i = 0; i < logs[0].events.size(); i += 2) {
    const TraceEvent& b = logs[0].events[i];
    const TraceEvent& e = logs[0].events[i + 1];
    EXPECT_EQ(b.kind, TraceEventKind::TaskBegin);
    EXPECT_EQ(e.kind, TraceEventKind::TaskEnd);
    EXPECT_EQ(b.id, e.id);
    EXPECT_EQ(b.id % 3, 0u);
  }
}

TEST_F(TraceTest, FullPipelineExportIsStructurallyValid) {
  set_thread_label("pipeline");
  const auto topo = simnet::make_viola_experiment1();
  const int nranks = topo.num_ranks();
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < 6; ++s) {  // ring shifts
    for (Rank r = 0; r < nranks; ++r) {
      b.on(r).enter("ring").send((r + 1) % nranks, s, 2048.0);
      b.on(r).recv((r + nranks - 1) % nranks, s).exit();
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  auto data = workloads::run_experiment(topo, b.take(), cfg);
  analysis::ReplayOptions opts;
  opts.max_workers = 3;
  analysis::analyze_parallel(data.traces, opts);

  const Json trace = chrome_trace_json();
  expect_structurally_valid(trace);
  // The replay workers and the labeled main thread all show up as
  // named tracks.
  bool saw_pipeline = false, saw_replay_worker = false;
  for (const Json& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M" ||
        e.at("name").as_string() != "thread_name")
      continue;
    const std::string& name = e.at("args").at("name").as_string();
    if (name == "pipeline") saw_pipeline = true;
    if (name.rfind("replay worker", 0) == 0) saw_replay_worker = true;
  }
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_replay_worker);
  EXPECT_GT(trace.at("otherData").at("emitted_events").as_int(), 0);
}

TEST_F(TraceTest, WrappedRingStillExportsBalancedAndReportsDrops) {
  Recorder::instance().configure(5);
  set_thread_label("wrappy");
  // 20 begin/end pairs through a 5-slot ring: the retained tail starts
  // mid-pair, so the exporter must skip the stranded E and still close
  // everything it opens.
  for (std::uint32_t i = 0; i < 20; ++i) {
    record_event(TraceEventKind::TaskBegin, "work", i);
    record_event(TraceEventKind::TaskEnd, "work", i);
  }
  record_event(TraceEventKind::TaskBegin, "unfinished", 99);  // never ends
  const Json trace = chrome_trace_json();
  expect_structurally_valid(trace);
  EXPECT_GT(trace.at("otherData").at("dropped_events").at("wrappy").as_int(),
            0);
}

// --- time-resolved sampler ---------------------------------------------

TEST_F(TraceTest, SamplerCollectsMonotoneSeries) {
  counter("trace.sampled").add(1);
  start_sampler(2);
  EXPECT_TRUE(sampler_running());
  for (int i = 0; i < 5; ++i) {
    counter("trace.sampled").add(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_sampler();
  EXPECT_FALSE(sampler_running());

  const Json series = sampler_json();
  ASSERT_FALSE(series.is_null());
  EXPECT_EQ(series.at("interval_ms").as_int(), 2);
  EXPECT_FALSE(series.at("truncated").as_bool());
  const auto& samples = series.at("samples").as_array();
  ASSERT_GE(samples.size(), 1u);
  double prev_t = -1.0;
  for (const Json& s : samples) {
    const double t = s.at("t_s").as_number();
    EXPECT_GE(t, prev_t);
    prev_t = t;
    ASSERT_TRUE(s.has("counters"));
  }
  // The series lands in the snapshot document.
  const Json snap = snapshot_json();
  ASSERT_TRUE(snap.has("timeseries"));
  EXPECT_EQ(snap.at("timeseries"), series);
}

TEST_F(TraceTest, SamplerNeverRunMeansNoTimeseriesSection) {
  EXPECT_TRUE(sampler_json().is_null());
  EXPECT_FALSE(snapshot_json().has("timeseries"));
}

// --- versioned snapshot + run metadata ---------------------------------

TEST_F(TraceTest, SnapshotCarriesSchemaVersionAndRunMetadata) {
  Json snap = snapshot_json();
  EXPECT_EQ(snap.at("schema_version").as_int(), kSnapshotSchemaVersion);
  EXPECT_FALSE(snap.has("run"));  // nothing attached yet

  Json run{Json::Object{}};
  run.set("workload", "unit-test");
  run.set("seed", 42);
  run.set("ranks", 8);
  run.set("workers", 2);
  set_run_metadata(std::move(run));
  snap = snapshot_json();
  ASSERT_TRUE(snap.has("run"));
  EXPECT_EQ(snap.at("run").at("workload").as_string(), "unit-test");
  EXPECT_EQ(snap.at("run").at("seed").as_int(), 42);
  EXPECT_EQ(snap.at("run").at("ranks").as_int(), 8);
  EXPECT_EQ(snap.at("run").at("workers").as_int(), 2);

  reset();  // clears run metadata along with everything else
  EXPECT_FALSE(snapshot_json().has("run"));
}

}  // namespace
}  // namespace metascope::telemetry
