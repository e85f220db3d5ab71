// Tests for the tracing layer: metahost identification, measurement
// stamping, binary trace I/O, and message matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "simnet/presets.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/matching.hpp"
#include "tracing/measurement.hpp"
#include "tracing/metahost_env.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::tracing {
namespace {

using simnet::Topology;

// --- metahost identification ---------------------------------------------

TEST(MetahostEnv, DefaultEnvsAreWellFormed) {
  const Topology topo = simnet::make_viola_experiment1();
  const auto envs = default_envs(topo);
  ASSERT_EQ(envs.size(), 3u);
  const auto defs = resolve_metahosts(topo, envs);
  ASSERT_EQ(defs.size(), 3u);
  EXPECT_EQ(defs[0].name, "CAESAR");
  EXPECT_EQ(defs[1].name, "FH-BRS");
  EXPECT_EQ(defs[2].name, "FZJ");
  EXPECT_EQ(defs[0].id.get(), 0);
}

TEST(MetahostEnv, MissingIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[1].erase(kEnvMetahostId);
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, MissingNameRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[2].erase(kEnvMetahostName);
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, DuplicateIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[1][kEnvMetahostId] = "0";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, NonNumericIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostId] = "zero";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
  envs[0][kEnvMetahostId] = "1x";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, OutOfRangeIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostId] = "7";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, DuplicateNameRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostName] = "FZJ";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, PermutedIdsReorderDefinitions) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  // Swap the numeric ids of CAESAR (topo 0) and FZJ (topo 2).
  envs[0][kEnvMetahostId] = "2";
  envs[2][kEnvMetahostId] = "0";
  auto prog = workloads::late_sender_program(0.01);
  // The 2-rank program needs a small 2-metahost topology.
  Topology small;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 1;
  simnet::MetahostSpec b = a;
  b.name = "B";
  small.add_metahost(a);
  small.add_metahost(b);
  small.place_block(MetahostId{0}, 1, 1);
  small.place_block(MetahostId{1}, 1, 1);
  std::vector<EnvMap> senvs = default_envs(small);
  senvs[0][kEnvMetahostId] = "1";
  senvs[0][kEnvMetahostName] = "EnvB";
  senvs[1][kEnvMetahostId] = "0";
  senvs[1][kEnvMetahostName] = "EnvA";
  const auto exec = simmpi::execute(small, prog);
  const auto clocks = simnet::ClockSet::perfect(small);
  MeasurementConfig mc;
  mc.scheme = SyncScheme::None;
  const TraceCollection tc =
      collect_traces(small, clocks, prog, exec, mc, senvs);
  // Rank 0 lives on topology metahost 0, whose env id is 1 / "EnvB".
  EXPECT_EQ(tc.defs.metahost_of(0).get(), 1);
  EXPECT_EQ(tc.defs.metahost(tc.defs.metahost_of(0)).name, "EnvB");
  EXPECT_EQ(tc.defs.metahost_of(1).get(), 0);
  EXPECT_TRUE(tc.defs.crosses_metahosts(0, 1));
}

// --- measurement -----------------------------------------------------------

class MeasurementTest : public ::testing::Test {
 protected:
  MeasurementTest()
      : topo_(simnet::make_viola_experiment1()),
        prog_(workloads::build_metatrace()) {}

  workloads::ExperimentData run(SyncScheme scheme,
                                bool perfect = false) const {
    workloads::ExperimentConfig cfg;
    cfg.measurement.scheme = scheme;
    cfg.perfect_clocks = perfect;
    return workloads::run_experiment(topo_, prog_, cfg);
  }

  Topology topo_;
  simmpi::Program prog_;
};

TEST_F(MeasurementTest, LocalStampsAreMonotonePerRank) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  for (const auto& t : data.traces.ranks) {
    for (std::size_t i = 1; i < t.events.size(); ++i)
      ASSERT_LT(t.events[i - 1].time, t.events[i].time + 1e-15)
          << "rank " << t.rank << " event " << i;
  }
}

TEST_F(MeasurementTest, EventCountsMatchExecution) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  ASSERT_EQ(data.traces.num_ranks(), topo_.num_ranks());
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(
        data.traces.ranks[static_cast<std::size_t>(r)].events.size(),
        data.exec.per_rank[static_cast<std::size_t>(r)].size());
  }
}

TEST_F(MeasurementTest, PerfectClocksReproduceTrueTime) {
  const auto data = run(SyncScheme::None, /*perfect=*/true);
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& tr = data.traces.ranks[static_cast<std::size_t>(r)];
    const auto& ex = data.exec.per_rank[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < tr.events.size(); ++i)
      ASSERT_NEAR(tr.events[i].time, ex[i].time.s, 1e-8);
  }
}

TEST_F(MeasurementTest, SkewedClocksDivergeFromTrueTime) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  // With offsets up to +-0.5 s, at least one rank's first stamp must be
  // far from true time.
  double max_div = 0.0;
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& tr = data.traces.ranks[static_cast<std::size_t>(r)];
    const auto& ex = data.exec.per_rank[static_cast<std::size_t>(r)];
    max_div = std::max(max_div, std::abs(tr.events[0].time - ex[0].time.s));
  }
  EXPECT_GT(max_div, 0.01);
}

TEST_F(MeasurementTest, FlatSchemeRecordsOnePhaseOrTwo) {
  const auto one = run(SyncScheme::FlatSingle);
  const auto two = run(SyncScheme::FlatTwo);
  for (Rank r = 1; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(one.traces.ranks[static_cast<std::size_t>(r)].sync.size(),
              1u);
    EXPECT_EQ(two.traces.ranks[static_cast<std::size_t>(r)].sync.size(),
              2u);
    for (const auto& rec :
         two.traces.ranks[static_cast<std::size_t>(r)].sync)
      EXPECT_EQ(rec.ref_rank, 0);
  }
  EXPECT_TRUE(one.traces.ranks[0].sync.empty());
}

TEST_F(MeasurementTest, HierarchicalRecordsReferenceLocalMasters) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  const auto masters = topo_.local_masters();
  const Rank metamaster = 0;
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& sync = data.traces.ranks[static_cast<std::size_t>(r)].sync;
    const Rank lm =
        masters[static_cast<std::size_t>(topo_.metahost_of(r).get())];
    if (r == metamaster) {
      EXPECT_TRUE(sync.empty());
      continue;
    }
    ASSERT_EQ(sync.size(), 2u) << "rank " << r;
    const Rank expected_ref = (r == lm) ? metamaster : lm;
    EXPECT_EQ(sync[0].ref_rank, expected_ref) << "rank " << r;
    EXPECT_EQ(sync[0].phase, 0);
    EXPECT_EQ(sync[1].phase, 1);
  }
}

TEST_F(MeasurementTest, OffsetMeasurementsApproximateTrueOffset) {
  const auto data = run(SyncScheme::FlatTwo);
  // The recorded offset should be close to the true clock difference
  // (within jitter + asymmetry bias, bounded by ~200 us here).
  for (Rank r = 1; r < topo_.num_ranks(); ++r) {
    const auto& rec =
        data.traces.ranks[static_cast<std::size_t>(r)].sync.front();
    const auto& my_clock = data.clocks.clock_of(topo_, r);
    const auto& ref_clock = data.clocks.clock_of(topo_, 0);
    const TrueTime t = my_clock.true_of(LocalTime{rec.local_mid});
    const double true_offset = ref_clock.at(t).s - my_clock.at(t).s;
    EXPECT_NEAR(rec.offset, true_offset, 300e-6) << "rank " << r;
  }
}

// --- binary I/O -------------------------------------------------------------

TEST_F(MeasurementTest, CollectionRoundTripsThroughFiles) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  const auto dir = std::filesystem::temp_directory_path() / "msc_trace_rt";
  std::filesystem::create_directories(dir);
  write_collection(dir.string(), data.traces);
  const TraceCollection loaded = read_collection(dir.string());
  EXPECT_EQ(loaded.scheme, data.traces.scheme);
  EXPECT_EQ(loaded.synchronized, data.traces.synchronized);
  EXPECT_EQ(loaded.defs.regions.all(), data.traces.defs.regions.all());
  EXPECT_EQ(loaded.defs.metahosts, data.traces.defs.metahosts);
  EXPECT_EQ(loaded.defs.locations, data.traces.defs.locations);
  EXPECT_EQ(loaded.defs.comms, data.traces.defs.comms);
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)])
        << "rank " << r;
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, CorruptMagicRejected) {
  std::vector<std::uint8_t> bytes{'X', 'X', 'X', 'X', 0, 0, 0, 0};
  EXPECT_THROW(decode_defs(bytes), Error);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

TEST(TraceIo, TruncatedTraceRejected) {
  LocalTrace t;
  t.rank = 0;
  Event e;
  e.type = EventType::Enter;
  e.region = RegionId{0};
  e.time = 1.0;
  t.events.push_back(e);
  auto bytes = encode_local_trace(t);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

TEST(TraceIo, TrailingBytesRejected) {
  LocalTrace t;
  t.rank = 0;
  auto bytes = encode_local_trace(t);
  bytes.push_back(0xFF);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

// --- matching ----------------------------------------------------------------

TEST(Matching, PairsEveryMessage) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = SyncScheme::None;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto pairs = match_messages(data.traces);
  EXPECT_EQ(pairs.size(), data.exec.stats.messages);
  for (const auto& p : pairs) {
    const auto& s = data.traces.ranks[static_cast<std::size_t>(p.send.rank)]
                        .events[p.send.index];
    const auto& r = data.traces.ranks[static_cast<std::size_t>(p.recv.rank)]
                        .events[p.recv.index];
    ASSERT_EQ(s.type, EventType::Send);
    ASSERT_EQ(r.type, EventType::Recv);
    ASSERT_EQ(s.peer, p.recv.rank);
    ASSERT_EQ(r.peer, p.send.rank);
    ASSERT_EQ(s.tag, r.tag);
    ASSERT_EQ(s.comm, r.comm);
  }
}

/// Rank 0 sends rank 1 one message on tag 5, and rank 1 receives it.
TraceCollection one_message() {
  TraceCollection tc;
  tc.ranks.resize(2);
  for (Rank r = 0; r < 2; ++r) {
    LocalTrace& t = tc.ranks[static_cast<std::size_t>(r)];
    t.rank = r;
    Event e;
    e.type = r == 0 ? EventType::Send : EventType::Recv;
    e.peer = 1 - r;
    e.tag = 5;
    e.time = 1.0;
    t.events.push_back(e);
  }
  return tc;
}

void expect_unmatched(const TraceCollection& tc, const std::string& want) {
  try {
    (void)match_messages(tc);
    ADD_FAILURE() << "no error, expected " << want;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(Matching, UnmatchedSendDetected) {
  auto dropped = one_message();
  dropped.ranks[1].events.clear();
  EXPECT_THROW(match_messages(dropped), Error);
  expect_unmatched(dropped, "unmatched SEND 0 -> 1 tag 5 (1 left)");
  // Sends are reported first, so rank 1's starved Recv stays unnamed.
  auto outside = one_message();
  outside.ranks[0].events[0].peer = 7;
  expect_unmatched(outside, "unmatched SEND 0 -> 7");
}

TEST(Matching, UnmatchedRecvDetected) {
  auto dropped = one_message();
  dropped.ranks[0].events.clear();
  EXPECT_THROW(match_messages(dropped), Error);
  expect_unmatched(dropped, "unmatched RECV 0 -> 1 tag 5 (1 left)");
  auto outside = dropped;
  outside.ranks[1].events[0].peer = 7;
  expect_unmatched(outside, "unmatched RECV 7 -> 1");
}

TEST(EpilogIo, TruncatedTraceFileReportsClearError) {
  LocalTrace t;
  t.rank = 3;
  for (int i = 0; i < 20; ++i) {
    Event e;
    e.type = EventType::Send;
    e.peer = 1;
    e.tag = i;
    e.bytes = 128.0;
    e.comm = CommId{0};
    e.time = 0.1 * i;
    t.events.push_back(e);
  }
  const auto bytes = encode_local_trace(t);
  // Chop at several depths: inside the last event, mid-payload, and just
  // past the header. Every cut must produce the truncation Error, never
  // a raw buffer underflow.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{12}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + keep);
    try {
      (void)decode_local_trace(cut);
      FAIL() << "expected Error at keep=" << keep;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated trace file"),
                std::string::npos)
          << "keep=" << keep << " message: " << e.what();
    }
  }
}

TEST(EpilogIo, ZeroEventTraceRoundTrips) {
  LocalTrace t;
  t.rank = 7;
  const auto decoded = decode_local_trace(encode_local_trace(t));
  EXPECT_EQ(decoded.rank, 7);
  EXPECT_TRUE(decoded.events.empty());
  EXPECT_TRUE(decoded.sync.empty());
}

}  // namespace
}  // namespace metascope::tracing
