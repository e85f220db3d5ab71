// Replay-core + scheduler properties: the pooled parallel analyzer must
// produce a cube *bit-identical* to the serial analyzer for any worker
// count and any interleaving (the canonical-order accumulation makes
// floating-point sums order-independent across runs); a task suspends
// only for a message that has not been sent yet; malformed traces fail
// fast instead of hanging a worker forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "analysis/analyzer.hpp"
#include "analysis/replay_protocol.hpp"
#include "analysis/replay_scheduler.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simnet/presets.hpp"
#include "workloads/experiment.hpp"

namespace metascope::analysis {
namespace {

using tracing::EventType;

/// Mixed p2p + collective program with per-rank jitter: ring shifts,
/// random pair chatter, staggered barriers/allreduces, rooted
/// collectives.
simmpi::Program jittered_program(int nranks, std::uint64_t seed,
                                 int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    switch (rng.uniform_index(4)) {
      case 0: {  // ring shift
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).enter("ring").send((r + 1) % nranks, s, 2048.0);
          b.on(r).recv((r + nranks - 1) % nranks, s).exit();
        }
        break;
      }
      case 1: {  // staggered barrier
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {  // allreduce
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(512.0);
        break;
      }
      default: {  // rooted pair
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.004));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 256.0);
        }
        break;
      }
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

tracing::TraceCollection jittered_traces(const simnet::Topology& topo,
                                         std::uint64_t seed, int steps) {
  const auto prog = jittered_program(topo.num_ranks(), seed, steps);
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;
  auto data = workloads::run_experiment(topo, prog, cfg);
  clocksync::synchronize(data.traces);
  return std::move(data.traces);
}

tracing::TraceCollection perfect_traces(const simnet::Topology& topo,
                                        const simmpi::Program& prog) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  return std::move(workloads::run_experiment(topo, prog, cfg).traces);
}

// --- bit-identical across worker counts --------------------------------------

class WorkerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerSweep, PooledCubeBitIdenticalToSerial) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 7ULL, 10);
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = GetParam();
  const auto p = analyze_parallel(tc, opts);
  // Tolerance 0: *exactly* equal, not approximately.
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 0.0));
  EXPECT_EQ(s.stats.messages, p.stats.messages);
  EXPECT_EQ(s.stats.collective_instances, p.stats.collective_instances);
  EXPECT_LE(p.stats.replay_workers, std::max<std::size_t>(GetParam(), 1));
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{8}));

// --- determinism stress (satellite) ------------------------------------------

TEST(ReplayDeterminism, TwentyRunsBitIdenticalUnderTwoWorkerCap) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 99ULL, 12);
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = 2;
  for (int run = 0; run < 20; ++run) {
    const auto p = analyze_parallel(tc, opts);
    ASSERT_TRUE(s.cube.approx_equal(p.cube, 0.0)) << "run " << run;
    ASSERT_EQ(s.stats.messages, p.stats.messages) << "run " << run;
    ASSERT_EQ(s.stats.collective_instances, p.stats.collective_instances)
        << "run " << run;
  }
}

// --- many ranks, few workers --------------------------------------------------

TEST(ReplayScaling, ManyRanksOnFourWorkers) {
  const int n = 256;
  const auto topo = simnet::make_ibm_power(n);
  const auto tc = perfect_traces(topo, jittered_program(n, 21ULL, 4));
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = 4;
  const auto p = analyze_parallel(tc, opts);
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 0.0));
  EXPECT_EQ(p.stats.replay_workers, 4u);
  EXPECT_EQ(p.stats.replay_tasks, static_cast<std::size_t>(n));
  // A task suspends only at a receive whose message is not there yet, and
  // every suspension is ended by a distinct send.
  EXPECT_LE(p.stats.replay_suspensions, p.stats.messages);
}

// --- suspension only for messages ------------------------------------------

TEST(ReplayWaits, CollectivesNeverSuspend) {
  const int n = 256;
  const auto topo = simnet::make_ibm_power(n);
  simmpi::ProgramBuilder b(n);
  for (Rank r = 0; r < n; ++r) {
    b.on(r).enter("main").compute(1e-4 * (r % 5)).barrier();
    b.on(r).allreduce(64.0).bcast(3, 128.0).reduce(5, 128.0);
    b.on(r).compute(1e-4 * (r % 3)).barrier().exit();
  }
  const auto tc = perfect_traces(topo, b.take());
  const auto s = analyze_serial(tc);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ReplayOptions opts;
    opts.max_workers = workers;
    const auto p = analyze_parallel(tc, opts);
    EXPECT_TRUE(s.cube.approx_equal(p.cube, 0.0)) << workers;
    EXPECT_EQ(p.stats.collective_instances, 5u);
    EXPECT_EQ(p.stats.replay_suspensions, 0u) << workers;
  }
}

/// Rank 0 posts 40 nonblocking sends to rank 1, tags cycling 0..3; rank 1
/// receives them tag by tag, highest tag first. Every receive but the
/// first few must skip messages addressed to other tags, and the pair
/// channel holds more messages than one chunk.
tracing::TraceCollection interleaved_tag_traces() {
  constexpr int kMessages = 40;
  constexpr int kTags = 4;
  const auto topo = simnet::make_ibm_power(2);
  simmpi::ProgramBuilder b(2);
  auto& sender = b.on(0).enter("main");
  std::vector<int> reqs;
  for (int k = 0; k < kMessages; ++k)
    reqs.push_back(sender.isend(1, k % kTags, 64.0 + k));
  for (const int r : reqs) sender.wait(r);
  sender.exit();
  auto& receiver = b.on(1).enter("main");
  for (int tag = kTags - 1; tag >= 0; --tag)
    for (int k = 0; k < kMessages / kTags; ++k)
      receiver.compute(1e-5).recv(0, tag);
  receiver.exit();
  return perfect_traces(topo, b.take());
}

TEST(ReplayWaits, OutOfOrderTagsOnOnePairMatchSerial) {
  const auto tc = interleaved_tag_traces();
  const auto s = analyze_serial(tc);
  for (int run = 0; run < 20; ++run) {
    ReplayOptions opts;
    opts.max_workers = 2;
    const auto p = analyze_parallel(tc, opts);
    ASSERT_TRUE(s.cube.approx_equal(p.cube, 0.0)) << "run " << run;
    ASSERT_EQ(p.stats.messages, 40u);
    ASSERT_LE(p.stats.replay_suspensions, p.stats.messages);
  }
}

/// Two threads drive one channel directly. The sender publishes message
/// i only once the receiver has taken message i - 1, so every receive
/// races its message's send: the receiver finds the queue empty and
/// parks while the send lands. A wakeup lost in that window stalls both
/// threads until the deadline.
TEST(ReplayWaits, ChannelNeverLosesAWakeup) {
  constexpr int kMessages = 20000;
  MessageChannel ch;
  std::atomic<int> taken{0};
  std::atomic<bool> woken{false};
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    for (int i = 0; i < kMessages; ++i) {
      while (taken.load() < i)
        if (stop.load()) return;
      if (ch.send(Message{static_cast<double>(i), 0.0, CallPathId{0}, 0, 0}))
        woken.store(true);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool in_order = true;
  for (int i = 0; i < kMessages && !stop.load(); ++i) {
    Message m;
    while (!ch.receive(0, 0, m)) {
      while (!woken.exchange(false)) {
        if (std::chrono::steady_clock::now() > deadline) {
          stop.store(true);
          break;
        }
      }
      if (stop.load()) break;
    }
    if (stop.load()) break;
    if (m.op_enter != static_cast<double>(i)) in_order = false;
    taken.store(i + 1);
  }
  sender.join();
  EXPECT_FALSE(stop.load()) << "receiver parked and was never woken after "
                            << taken.load() << " messages";
  EXPECT_TRUE(in_order);
}

// --- malformed traces fail fast (satellite) ----------------------------------

TEST(ReplayFailFast, IncompleteCollectiveRaisesBeforeReplay) {
  const auto topo = simnet::make_ibm_power(4);
  simmpi::ProgramBuilder b(4);
  for (Rank r = 0; r < 4; ++r)
    b.on(r).enter("main").compute(0.001).barrier().exit();
  auto tc = perfect_traces(topo, b.take());

  // Drop rank 3's barrier (its Enter + CollExit pair): the instance can
  // never complete. Both analyzers must reject the trace immediately —
  // the old parallel analyzer waited forever on the instance's
  // condition variable.
  auto& events = tc.ranks[3].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::CollExit; });
  ASSERT_NE(it, events.end());
  ASSERT_NE(it, events.begin());
  ASSERT_EQ(std::prev(it)->type, EventType::Enter);
  events.erase(std::prev(it), std::next(it));

  EXPECT_THROW(analyze_serial(tc), Error);
  EXPECT_THROW(analyze_parallel(tc), Error);
}

TEST(ReplayFailFast, CollectiveOnForeignCommunicatorRaisesBeforeReplay) {
  const auto topo = simnet::make_ibm_power(3);
  simmpi::ProgramBuilder b(3);
  const CommId pair = b.comms().create("pair", {0, 1});
  for (Rank r = 0; r < 2; ++r) b.on(r).enter("main").barrier(pair).exit();
  b.on(2).enter("main").compute(0.001).exit();
  auto tc = perfect_traces(topo, b.take());

  // Give rank 2 a copy of rank 0's barrier on a communicator it is not a
  // member of: every member still agrees on the instance count, so only
  // the membership check can reject it.
  const auto& src = tc.ranks[0].events;
  const auto coll = std::find_if(src.begin(), src.end(), [](const auto& e) {
    return e.type == EventType::CollExit;
  });
  ASSERT_NE(coll, src.end());
  auto& events = tc.ranks[2].events;
  const double t = events.back().time;
  auto enter = *std::prev(coll);
  auto exit = *coll;
  enter.time = t;
  exit.time = t;
  events.back().time = t + 1e-6;
  events.insert(std::prev(events.end()), {enter, exit});

  try {
    analyze_parallel(tc);
    FAIL() << "expected a membership error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not a member"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(analyze_serial(tc), Error);
}

TEST(ReplayFailFast, UnmatchedReceiveReportsDeadlockNotHang) {
  const auto topo = simnet::make_ibm_power(2);
  simmpi::ProgramBuilder b(2);
  b.on(0).enter("main").send(1, 5, 64.0).exit();
  b.on(1).enter("main").recv(0, 5).exit();
  auto tc = perfect_traces(topo, b.take());

  // Drop the Send event: rank 1's receive can never be satisfied. The
  // scheduler must detect the quiescent replay and raise instead of
  // leaving the task suspended forever.
  auto& events = tc.ranks[0].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::Send; });
  ASSERT_NE(it, events.end());
  events.erase(it);

  EXPECT_THROW(analyze_serial(tc), Error);
  EXPECT_THROW(analyze_parallel(tc), Error);
}

// --- scheduler stats ----------------------------------------------------------

TEST(SchedulerStats, CountersPopulated) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 3ULL, 8);
  ReplayOptions opts;
  opts.max_workers = 2;
  const auto p = analyze_parallel(tc, opts);
  EXPECT_EQ(p.stats.replay_workers, 2u);
  EXPECT_EQ(p.stats.replay_tasks,
            static_cast<std::size_t>(tc.num_ranks()));
  EXPECT_GT(p.stats.replay_suspensions, 0u);
  // Every suspension is eventually resumed exactly once.
  EXPECT_EQ(p.stats.replay_requeues, p.stats.replay_suspensions);
}

}  // namespace
}  // namespace metascope::analysis
