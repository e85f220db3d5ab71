// Tests for post-mortem clock synchronization: linear corrections,
// the three schemes' accuracy, clock-condition checking (Table 2's
// mechanism), and ground-truth error analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "clocksync/clock_condition.hpp"
#include "clocksync/correction.hpp"
#include "clocksync/error_analysis.hpp"
#include "common/error.hpp"
#include "simnet/presets.hpp"
#include "workloads/clockbench.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::clocksync {
namespace {

using tracing::SyncScheme;

TEST(LinearCorrection, ApplyAndCompose) {
  const LinearCorrection a{1.0, 2.0};
  const LinearCorrection b{-0.5, 0.5};
  EXPECT_DOUBLE_EQ(a.apply(3.0), 7.0);
  const LinearCorrection c = LinearCorrection::compose(a, b);
  // a(b(x)) = 1 + 2*(-0.5 + 0.5x) = 0 + x.
  EXPECT_DOUBLE_EQ(c.apply(3.0), a.apply(b.apply(3.0)));
  EXPECT_DOUBLE_EQ(LinearCorrection::identity().apply(9.9), 9.9);
}

class SchemeTest : public ::testing::TestWithParam<SyncScheme> {
 protected:
  SchemeTest() : topo_(simnet::make_viola_experiment1()) {}

  workloads::ExperimentData run_bench(SyncScheme scheme,
                                      std::uint64_t clock_seed = 42) {
    workloads::ClockBenchConfig bc;
    bc.rounds = 400;
    // Stretch virtual time (free for the engine) so that uncompensated
    // drift accumulates well past the WAN-asymmetry bias — the effect
    // separating Table 2's rows (i) and (ii).
    bc.pad_work = 0.05;
    auto prog = workloads::build_clock_bench(topo_.num_ranks(), bc);
    workloads::ExperimentConfig cfg;
    cfg.measurement.scheme = scheme;
    cfg.clock_seed = clock_seed;
    return workloads::run_experiment(topo_, prog, cfg);
  }

  simnet::Topology topo_;
};

TEST_P(SchemeTest, CorrectionsReduceViolationsVsRaw) {
  auto data = run_bench(GetParam());
  const auto raw = check_clock_condition(data.traces);
  synchronize(data.traces);
  const auto fixed = check_clock_condition(data.traces);
  // Raw traces with +-0.5 s offsets violate massively; every scheme must
  // improve on that.
  EXPECT_GT(raw.violations, fixed.violations);
  EXPECT_TRUE(data.traces.synchronized);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeTest,
                         ::testing::Values(SyncScheme::FlatSingle,
                                           SyncScheme::FlatTwo,
                                           SyncScheme::HierarchicalTwo));

TEST_F(SchemeTest, HierarchicalEliminatesViolations) {
  auto data = run_bench(SyncScheme::HierarchicalTwo);
  synchronize(data.traces);
  const auto rep = check_clock_condition(data.traces);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_GT(rep.messages, 700u);
}

TEST_F(SchemeTest, Table2OrderingHolds) {
  // Paper Table 2: single flat > two flat >> hierarchical == 0.
  std::size_t v_single = 0;
  std::size_t v_two = 0;
  std::size_t v_hier = 0;
  for (std::uint64_t seed : {42ULL, 43ULL, 44ULL}) {
    auto d1 = run_bench(SyncScheme::FlatSingle, seed);
    synchronize(d1.traces);
    v_single += check_clock_condition(d1.traces).violations;
    auto d2 = run_bench(SyncScheme::FlatTwo, seed);
    synchronize(d2.traces);
    v_two += check_clock_condition(d2.traces).violations;
    auto d3 = run_bench(SyncScheme::HierarchicalTwo, seed);
    synchronize(d3.traces);
    v_hier += check_clock_condition(d3.traces).violations;
  }
  EXPECT_GT(v_single, v_two);
  EXPECT_GT(v_two, 0u);
  EXPECT_EQ(v_hier, 0u);
}

TEST_F(SchemeTest, HierarchicalIntraMetahostErrorIsTiny) {
  auto data = run_bench(SyncScheme::HierarchicalTwo);
  const auto corr = build_corrections(data.traces);
  const auto survey =
      survey_errors(topo_, data.clocks, corr,
                    {TrueTime{0.5}, TrueTime{2.0}, TrueTime{5.0}});
  // Within a metahost the hierarchical scheme relies only on internal
  // links: errors far below the internal message latency (~21 us).
  EXPECT_LT(survey.intra_metahost_abs.max(), 10e-6);
  // Across metahosts the WAN asymmetry bias remains, but stays well
  // below the WAN latency (988 us) — no violations.
  EXPECT_LT(survey.inter_metahost_abs.max(), 500e-6);
}

TEST_F(SchemeTest, FlatIntraMetahostErrorExceedsInternalLatency) {
  auto data = run_bench(SyncScheme::FlatTwo);
  const auto corr = build_corrections(data.traces);
  const auto survey = survey_errors(topo_, data.clocks, corr,
                                    {TrueTime{0.5}, TrueTime{5.0}});
  // Flat measurements over the asymmetric WAN leave same-metahost pairs
  // with relative errors larger than their internal latency — the root
  // cause of Table 2's flat-scheme violations.
  EXPECT_GT(survey.intra_metahost_abs.max(), 21.5e-6);
}

TEST_F(SchemeTest, SingleFlatDriftGrowsOverTime) {
  auto data = run_bench(SyncScheme::FlatSingle);
  const auto corr = build_corrections(data.traces);
  double early = 0.0;
  double late = 0.0;
  for (Rank a = 0; a < topo_.num_ranks(); ++a) {
    early = std::max(early, std::abs(pairwise_error(topo_, data.clocks,
                                                    corr, a, 0,
                                                    TrueTime{0.1})));
    late = std::max(late, std::abs(pairwise_error(topo_, data.clocks, corr,
                                                  a, 0, TrueTime{20.0})));
  }
  // Without drift compensation the error grows roughly linearly in time.
  EXPECT_GT(late, early * 2.0);
}

TEST_F(SchemeTest, TwoFlatCompensatesDrift) {
  auto data = run_bench(SyncScheme::FlatTwo);
  const auto corr = build_corrections(data.traces);
  // At both ends of the run the error stays bounded by the measurement
  // bias; it does not blow up with time as FlatSingle's does.
  double worst = 0.0;
  for (Rank a = 1; a < topo_.num_ranks(); ++a) {
    worst = std::max(worst, std::abs(pairwise_error(topo_, data.clocks,
                                                    corr, a, 0,
                                                    TrueTime{20.0})));
  }
  EXPECT_LT(worst, 500e-6);
}

TEST(Corrections, NoneSchemeGivesIdentity) {
  const auto topo = simnet::make_ibm_power(4);
  auto prog = workloads::build_clock_bench(4, {});
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = SyncScheme::None;
  cfg.perfect_clocks = true;
  auto data = workloads::run_experiment(topo, prog, cfg);
  const auto corr = build_corrections(data.traces);
  for (const auto& c : corr) EXPECT_EQ(c, LinearCorrection::identity());
}

TEST(Corrections, PerfectlyLinearClocksAreExactlyRecovered) {
  // With zero jitter, zero asymmetry and noise-free clock reads, the
  // two-point interpolation must recover the clock mapping exactly.
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 2;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, 2, 1);
  auto prog = workloads::build_clock_bench(2, {});
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = SyncScheme::FlatTwo;
  cfg.clocks.granularity = 0.0;
  cfg.clocks.read_noise = 0.0;
  auto data = workloads::run_experiment(topo, prog, cfg);
  const auto corr = build_corrections(data.traces);
  // Residual pairwise error: zero up to floating-point.
  for (double t : {0.0, 1.0, 10.0}) {
    EXPECT_NEAR(pairwise_error(topo, data.clocks, corr, 1, 0, TrueTime{t}),
                0.0, 1e-9);
  }
}

TEST(Corrections, ApplyTwiceRejected) {
  const auto topo = simnet::make_ibm_power(4);
  auto prog = workloads::build_clock_bench(4, {});
  workloads::ExperimentConfig cfg;
  auto data = workloads::run_experiment(topo, prog, cfg);
  synchronize(data.traces);
  EXPECT_THROW(synchronize(data.traces), Error);
}

TEST(Corrections, MissingPhaseRecordRejected) {
  const auto topo = simnet::make_viola_experiment1();
  workloads::ClockBenchConfig bc;
  bc.rounds = 20;
  auto prog = workloads::build_clock_bench(32, bc);
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = SyncScheme::FlatTwo;
  auto data = workloads::run_experiment(topo, prog, cfg);
  data.traces.ranks[5].sync.pop_back();  // drop the end-phase record
  EXPECT_THROW(build_corrections(data.traces), Error);
}

// Regression: ref_rank comes straight from decoded trace bytes; an
// out-of-range value must surface as a typed Corrupt error, not index
// out of bounds (found by fuzz_sync_decode).
TEST(Corrections, OutOfRangeRefRankRejected) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_clock_bench(32, {});
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = SyncScheme::HierarchicalTwo;
  auto data = workloads::run_experiment(topo, prog, cfg);
  for (auto& rec : data.traces.ranks[5].sync) rec.ref_rank = 1 << 20;
  try {
    build_corrections(data.traces);
    FAIL() << "garbage ref_rank must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    EXPECT_EQ(e.context().rank, 5);
  }
}

TEST(Corrections, RankWithEventsButNoRecordsRejected) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_clock_bench(32, {});
  for (const auto scheme : {SyncScheme::FlatSingle, SyncScheme::FlatTwo,
                            SyncScheme::HierarchicalTwo}) {
    workloads::ExperimentConfig cfg;
    cfg.measurement.scheme = scheme;
    auto data = workloads::run_experiment(topo, prog, cfg);
    // Without its events too, the rank keeps the identity instead.
    auto quiet = data.traces;
    quiet.ranks[5].sync.clear();
    quiet.ranks[5].events.clear();
    EXPECT_EQ(build_corrections(quiet)[5], LinearCorrection::identity());

    data.traces.ranks[5].sync.clear();
    try {
      build_corrections(data.traces);
      ADD_FAILURE() << "a rank without records was corrected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Corrupt);
      EXPECT_EQ(e.context().rank, 5);
      EXPECT_EQ(e.base_message(), "rank 5 has events but no offset records");
    }
  }
}

TEST(ClockCondition, CountsKnownViolation) {
  tracing::TraceCollection tc;
  tc.ranks.resize(2);
  tc.ranks[0].rank = 0;
  tc.ranks[1].rank = 1;
  tracing::Event s;
  s.type = tracing::EventType::Send;
  s.peer = 1;
  s.tag = 0;
  s.time = 1.0;
  tracing::Event r;
  r.type = tracing::EventType::Recv;
  r.peer = 0;
  r.tag = 0;
  r.time = 0.9;  // receive "before" send
  tc.ranks[0].events.push_back(s);
  tc.ranks[1].events.push_back(r);
  const auto rep = check_clock_condition(tc);
  EXPECT_EQ(rep.messages, 1u);
  EXPECT_EQ(rep.violations, 1u);
  EXPECT_NEAR(rep.worst_reversal, 0.1, 1e-12);
}

TEST(ClockCondition, CleanTraceHasNoViolations) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = SyncScheme::None;
  auto data = workloads::run_experiment(topo, prog, cfg);
  const auto rep = check_clock_condition(data.traces);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_GT(rep.messages, 0u);
  EXPECT_GT(rep.mean_gap, 0.0);
}

}  // namespace
}  // namespace metascope::clocksync
