// Analyzer-level properties: the serial and parallel analyzers (the
// message join on one and on many workers) must agree bit-for-bit;
// severity is a partition of total time; a distributed replay would move
// far fewer bytes than the traces contain.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simnet/presets.hpp"
#include "workloads/clockbench.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::analysis {
namespace {

/// A randomized but valid program: mixed p2p chains, collectives, and
/// nonblocking pairs — the property-test generator.
simmpi::Program random_program(int nranks, std::uint64_t seed, int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    const int kind = static_cast<int>(rng.uniform_index(5));
    switch (kind) {
      case 0: {  // random pair message
        const Rank a = static_cast<Rank>(rng.uniform_index(nranks));
        Rank c = static_cast<Rank>(rng.uniform_index(nranks - 1));
        if (c >= a) ++c;
        const double bytes = rng.uniform(16.0, 200000.0);
        b.on(a).enter("chat").send(c, s, bytes).exit();
        b.on(c).enter("chat").recv(a, s).exit();
        break;
      }
      case 1: {  // staggered compute + barrier
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {  // allreduce
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(256.0);
        break;
      }
      case 3: {  // rooted collectives
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.005));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 512.0);
        }
        break;
      }
      default: {  // nonblocking ring shift
        std::vector<int> reqs(static_cast<std::size_t>(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          auto& c = b.on(r);
          c.enter("shift");
          reqs[static_cast<std::size_t>(r)] = c.irecv((r + nranks - 1) % nranks, 7777 + s);
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

// --- serial == parallel ------------------------------------------------------

class EquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceSweep, SerialAndParallelCubesIdentical) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = random_program(topo.num_ranks(), GetParam(), 12);
  const auto tc = make_traces(topo, prog, /*skewed=*/true);
  const auto s = analyze_serial(tc);
  const auto p = analyze_parallel(tc);
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 1e-12));
  EXPECT_EQ(s.stats.messages, p.stats.messages);
  EXPECT_EQ(s.stats.collective_instances, p.stats.collective_instances);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL,
                                           6ULL, 7ULL, 8ULL));

TEST(Equivalence, MetaTraceExperiment) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  const auto tc = make_traces(topo, prog, /*skewed=*/true);
  const auto s = analyze_serial(tc);
  const auto p = analyze_parallel(tc);
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 1e-12));
}

TEST(Equivalence, PairBreakdownsAgree) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  const auto tc = make_traces(topo, prog, /*skewed=*/false);
  const auto s = analyze_serial(tc);
  const auto p = analyze_parallel(tc);
  for (std::size_t m = 0; m < s.cube.metrics.size(); ++m) {
    for (int a = 0; a < 3; ++a) {
      for (int bb = 0; bb < 3; ++bb) {
        EXPECT_NEAR(s.cube.pair_breakdown(MetricId{static_cast<int>(m)},
                                          MetahostId{a}, MetahostId{bb}),
                    p.cube.pair_breakdown(MetricId{static_cast<int>(m)},
                                          MetahostId{a}, MetahostId{bb}),
                    1e-12);
      }
    }
  }
}

// --- invariants ---------------------------------------------------------------

class InvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSweep, SeverityPartitionsTotalTime) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = random_program(topo.num_ranks(), GetParam(), 10);
  const auto tc = make_traces(topo, prog, /*skewed=*/false);
  const auto res = analyze_serial(tc);
  // Sum of all exclusive severities == sum of per-rank spans.
  double partition = 0.0;
  for (std::size_t m = 0; m < res.cube.metrics.size(); ++m)
    partition += res.cube.metric_total(MetricId{static_cast<int>(m)});
  double span = 0.0;
  for (const auto& t : tc.ranks)
    span += t.events.back().time - t.events.front().time;
  EXPECT_NEAR(partition, span, 1e-6 * span + 1e-9);
}

TEST_P(InvariantSweep, InclusiveSeveritiesNonNegative) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = random_program(topo.num_ranks(), GetParam(), 10);
  const auto tc = make_traces(topo, prog, /*skewed=*/false);
  const auto res = analyze_serial(tc);
  for (std::size_t m = 0; m < res.cube.metrics.size(); ++m) {
    const MetricId mid{static_cast<int>(m)};
    EXPECT_GE(res.cube.metric_inclusive_total(mid), -1e-9)
        << res.cube.metrics.def(mid).name;
    for (Rank r = 0; r < res.cube.num_ranks(); ++r)
      ASSERT_GE(res.cube.rank_inclusive_total(mid, r), -1e-9)
          << res.cube.metrics.def(mid).name << " rank " << r;
  }
}

TEST_P(InvariantSweep, WaitsNeverExceedMpiTime) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = random_program(topo.num_ranks(), GetParam(), 10);
  const auto tc = make_traces(topo, prog, /*skewed=*/false);
  const auto res = analyze_serial(tc);
  const auto& ps = res.patterns;
  const double mpi = res.cube.metric_inclusive_total(ps.mpi);
  double waits = 0.0;
  for (MetricId m : {ps.late_sender, ps.grid_late_sender, ps.late_receiver,
                     ps.grid_late_receiver, ps.wait_nxn, ps.grid_wait_nxn,
                     ps.wait_barrier, ps.grid_wait_barrier, ps.early_reduce,
                     ps.grid_early_reduce, ps.late_broadcast,
                     ps.grid_late_broadcast})
    waits += res.cube.metric_total(m);
  EXPECT_LE(waits, mpi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Values(11ULL, 12ULL, 13ULL, 14ULL,
                                           15ULL, 16ULL));

// --- misc ---------------------------------------------------------------------

TEST(Analyzer, RequiresSynchronizedTraces) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_clock_bench(32, {});
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;
  auto data = workloads::run_experiment(topo, prog, cfg);
  // Not yet synchronized.
  EXPECT_THROW(analyze_serial(data.traces), Error);
  EXPECT_THROW(analyze_parallel(data.traces), Error);
  clocksync::synchronize(data.traces);
  EXPECT_NO_THROW(analyze_serial(data.traces));
}

TEST(Analyzer, ReplayMovesFarLessThanTraceSize) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  const auto tc = make_traces(topo, prog, /*skewed=*/true);
  const auto p = analyze_parallel(tc);
  EXPECT_GT(p.stats.trace_bytes_in_memory, 0u);
  EXPECT_GT(p.stats.replay_bytes, 0u);
  // The paper's claim: replay exchanges much less than the trace volume
  // the workers hold (resident bytes — the figure is independent of the
  // on-disk trace format).
  EXPECT_LT(p.stats.replay_bytes, p.stats.trace_bytes_in_memory / 2);
}

TEST(Analyzer, SystemTreeCarriedIntoCube) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  const auto tc = make_traces(topo, prog, /*skewed=*/false);
  const auto res = analyze_serial(tc);
  ASSERT_EQ(res.cube.system.metahosts.size(), 3u);
  EXPECT_EQ(res.cube.system.metahosts[2].name, "FZJ");
  EXPECT_EQ(res.cube.num_ranks(), 32);
}

TEST(Analyzer, EmptyRankTraceTolerated) {
  // A rank that recorded nothing (no events) must not break analysis.
  const auto topo = simnet::make_ibm_power(4);
  simmpi::ProgramBuilder b(4);
  b.on(0).enter("m").send(1, 0, 10.0).exit();
  b.on(1).enter("m").recv(0, 0).exit();
  b.on(2).enter("m").exit();
  // rank 3 does nothing at all
  const auto prog = b.take();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  auto data = workloads::run_experiment(topo, prog, cfg);
  EXPECT_NO_THROW(analyze_serial(data.traces));
  EXPECT_NO_THROW(analyze_parallel(data.traces));
}

}  // namespace
}  // namespace metascope::analysis
