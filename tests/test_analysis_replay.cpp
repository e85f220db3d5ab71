// Replay-core and join properties: the pooled parallel analyzer must
// produce a cube *bit-identical* to the serial analyzer for any worker
// count and any interleaving (the canonical-order accumulation makes
// floating-point sums order-independent across runs); the definition
// unification assigns the serial walk's call-path ids in both analysis
// modes; the message join pairs exactly what the map matcher it replaced
// paired, in canonical order, and the streamed analysis built on it
// matches analyze_parallel on envelope-stress traces; malformed traces
// fail the same way in every analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "archive/archive.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simnet/presets.hpp"
#include "tracing/matching.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

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
}

// --- collectives and envelopes ------------------------------------------------

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
  }
}

/// Rank 0 posts 40 nonblocking sends to rank 1, tags cycling 0..3; rank 1
/// receives them tag by tag, highest tag first. Every receive but the
/// first few must skip messages addressed to other tags.
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
  }
}

/// A fresh temp directory for one test's archives.
std::filesystem::path test_dir(const std::string& tag) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("msc_" + tag + "_" +
                     std::to_string(::testing::UnitTest::GetInstance()
                                        ->random_seed()));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  return base;
}

/// `tc` written to a fresh archive under `base`, as a stream source.
tracing::StreamSource stream_of(const std::filesystem::path& base,
                                const std::string& name,
                                const simnet::Topology& topo,
                                const tracing::TraceCollection& tc) {
  auto arch = archive::ExperimentArchive::create(
      topo,
      archive::FileSystemLayout::shared(base.string(), topo.num_metahosts()),
      name);
  arch.write_traces(topo, tc);
  return arch.stream_source(archive::ReadOptions{});
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

TEST(ReplayFailFast, UnmatchedReceiveFailsInEveryAnalyzer) {
  const auto topo = simnet::make_ibm_power(2);
  simmpi::ProgramBuilder b(2);
  b.on(0).enter("main").send(1, 5, 64.0).exit();
  b.on(1).enter("main").recv(0, 5).exit();
  auto tc = perfect_traces(topo, b.take());

  // Drop the Send event: rank 1's receive has no send to take. Every
  // analyzer pairs through the same join, so every one raises its error.
  auto& events = tc.ranks[0].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::Send; });
  ASSERT_NE(it, events.end());
  events.erase(it);

  const std::string want = "unmatched RECV 0 -> 1 tag 5 (1 left)";
  const auto message = [](const std::function<void()>& analyze) {
    try {
      analyze();
    } catch (const Error& e) {
      return e.base_message();
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { (void)analyze_serial(tc); }), want) << "serial";
  const auto base = test_dir("unmatched_recv");
  const auto src = stream_of(base, "exp", topo, tc);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ReplayOptions opts;
    opts.max_workers = workers;
    EXPECT_EQ(message([&] { (void)analyze_parallel(tc, opts); }), want)
        << "parallel at " << workers << " workers";
    for (const std::size_t budget : {std::size_t{1}, std::size_t{0}}) {
      opts.memory_budget_bytes = budget;
      EXPECT_EQ(message([&] { (void)analyze_streaming(src, opts); }), want)
          << "streamed at " << workers << " workers, budget " << budget;
    }
  }
  std::filesystem::remove_all(base);
}

TEST(ReplayFailFast, UnmatchedSendFailsInEveryAnalyzer) {
  const auto topo = simnet::make_ibm_power(2);
  simmpi::ProgramBuilder b(2);
  b.on(0).enter("main").send(1, 5, 64.0).exit();
  b.on(1).enter("main").recv(0, 5).exit();
  const auto prog = b.take();
  const auto find = [](auto& events, EventType type) {
    return std::find_if(events.begin(), events.end(),
                        [&](const auto& e) { return e.type == type; });
  };

  // Drop the only Recv: rank 0's message has no receive to take it.
  auto dropped = perfect_traces(topo, prog);
  auto& receiver = dropped.ranks[1].events;
  const auto recv = find(receiver, EventType::Recv);
  ASSERT_NE(recv, receiver.end());
  receiver.erase(recv);
  // Address the Send to a rank outside the trace: no rank receives it.
  auto outside = perfect_traces(topo, prog);
  const auto send = find(outside.ranks[0].events, EventType::Send);
  ASSERT_NE(send, outside.ranks[0].events.end());
  send->peer = 7;

  const auto base = std::filesystem::temp_directory_path() /
                    ("msc_unmatched_send_" +
                     std::to_string(::testing::UnitTest::GetInstance()
                                        ->random_seed()));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const auto layout =
      archive::FileSystemLayout::shared(base.string(), topo.num_metahosts());

  const auto expect_error = [](const std::function<void()>& analyze,
                               const std::string& want,
                               const std::string& what) {
    try {
      analyze();
      ADD_FAILURE() << what << ": no error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const auto& [name, tc, want] :
       {std::tuple("dropped", &dropped, std::string("SEND 0 -> 1")),
        std::tuple("outside", &outside, std::string("SEND 0 -> 7"))}) {
    const std::string label = std::string(name) + " ";
    expect_error([&] { (void)analyze_serial(*tc); }, want, label + "serial");
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      ReplayOptions opts;
      opts.max_workers = workers;
      expect_error([&] { (void)analyze_parallel(*tc, opts); }, want,
                   label + "parallel at " + std::to_string(workers));
    }
    auto arch = archive::ExperimentArchive::create(topo, layout, name);
    arch.write_traces(topo, *tc);
    const auto src = arch.stream_source(archive::ReadOptions{});
    expect_error([&] { (void)analyze_streaming(src); }, want,
                 label + "streaming");
  }
  std::filesystem::remove_all(base);
}

// --- one op walk -------------------------------------------------------------

enum : int { kMain, kSendrecv, kWork, kAllreduce, kFinalize, kCleanup };

/// One hand-built rank: an MPI_Sendrecv (two ops in one region), a Send
/// directly inside `main` after a nested region, a collective, and a
/// tail of Enter/Exit events only. Times are exact in binary.
std::vector<tracing::Event> op_walk_rank() {
  const auto ev = [](EventType type, double time, int region = kMain) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.region = RegionId{region};
    e.peer = 1;
    return e;
  };
  return {
      ev(EventType::Enter, 0.0, kMain),
      ev(EventType::Enter, 1.0, kSendrecv),
      ev(EventType::Send, 1.25),
      ev(EventType::Recv, 1.5),
      ev(EventType::Exit, 2.0),
      ev(EventType::Enter, 2.5, kWork),
      ev(EventType::Exit, 4.0),
      ev(EventType::Send, 4.5),
      ev(EventType::Enter, 5.0, kAllreduce),
      ev(EventType::CollExit, 6.0, kAllreduce),
      ev(EventType::Exit, 7.0),
      ev(EventType::Enter, 7.5, kFinalize),
      ev(EventType::Enter, 8.0, kCleanup),
      ev(EventType::Exit, 8.5),
      ev(EventType::Exit, 9.0),
  };
}

TEST(OpWalk, RecordsMatchWhenConsumedWheneverNoneIsOpen) {
  const auto events = op_walk_rank();
  std::vector<OpRecord> whole;
  RankWalk one_pass(0, 1, whole);
  RankComm rc;
  for (const auto& e : events)
    if (one_pass.step(e)) rc.add(e);
  EXPECT_EQ(one_pass.open(), 0u);

  // The stream analyzer's pattern: hand the records on and clear them
  // whenever no Send/Recv awaits its region's exit.
  std::vector<OpRecord> window;
  std::vector<OpRecord> consumed;
  RankWalk windowed(0, 1, window);
  for (const auto& e : events) {
    (void)windowed.step(e);
    if (windowed.open() == 0) {
      consumed.insert(consumed.end(), window.begin(), window.end());
      window.clear();
    }
  }
  EXPECT_EQ(consumed, whole);
  EXPECT_EQ(windowed.calls(), one_pass.calls());

  // The rank's own ids, by first appearance: main 0, Sendrecv 1, work 2,
  // Allreduce 3, finalize 4, cleanup 5.
  const report::CallTree& local = one_pass.calls();
  ASSERT_EQ(local.size(), 6u);
  const CallPathId main{0};
  const CallPathId sendrecv{1};
  const CallPathId allreduce{3};
  EXPECT_EQ(local.node(allreduce).region, RegionId{kAllreduce});
  EXPECT_EQ(local.node(allreduce).parent, main);
  const std::vector<OpRecord> want{{2, sendrecv, 1.0, 2.0},
                                   {3, sendrecv, 1.0, 2.0},
                                   {7, main, 0.0, 7.0},
                                   {9, allreduce, 5.0, 6.0}};
  EXPECT_EQ(whole, want);
  // RankComm counts what the walk recorded.
  EXPECT_EQ(rc.recvs, 1u);
  EXPECT_EQ(rc.colls, std::vector<int>{1});

  // Unified alone into an empty tree, the rank keeps its ids. main 7 -
  // (1 + 1.5 + 1); Sendrecv 1; work 1.5; Allreduce 1; finalize 1.5 -
  // 0.5; cleanup 0.5 — in call-path id order, the same from both walks.
  const std::vector<ExclusiveTime> excl{
      {CallPathId{0}, 3.5}, {CallPathId{1}, 1.0}, {CallPathId{2}, 1.5},
      {CallPathId{3}, 1.0}, {CallPathId{4}, 1.0}, {CallPathId{5}, 0.5}};
  for (const RankWalk* walk : {&one_pass, &windowed}) {
    CallPathPool paths(1);
    walk->finish(paths);
    report::CallTree global;
    std::vector<std::vector<ExclusiveTime>> excl_time(1);
    EXPECT_EQ(paths.unify(global, excl_time),
              (std::vector<std::vector<CallPathId>>{
                  {CallPathId{0}, CallPathId{1}, CallPathId{2},
                   CallPathId{3}, CallPathId{4}, CallPathId{5}}}));
    EXPECT_EQ(global, local);
    EXPECT_EQ(excl_time[0], excl);
  }
}

TEST(OpWalk, PrepareRecordsEveryOpOnceInIndexOrder) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 5ULL, 8);
  const PreparedTrace prep = prepare(tc, 2);
  ASSERT_EQ(prep.ops.size(), tc.ranks.size());
  for (const auto& trace : tc.ranks) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < trace.events.size(); ++i) {
      const EventType t = trace.events[i].type;
      if (t == EventType::Send || t == EventType::Recv ||
          t == EventType::CollExit)
        want.push_back(i);
    }
    std::vector<std::uint32_t> got;
    for (const OpRecord& op : prep.ops[static_cast<std::size_t>(trace.rank)]) {
      got.push_back(op.index);
      const double t = trace.events[op.index].time;
      EXPECT_LE(op.op_enter, t) << "rank " << trace.rank;
      EXPECT_GE(op.op_exit, t) << "rank " << trace.rank;
    }
    EXPECT_EQ(got, want) << "rank " << trace.rank;
  }
}

// --- definition unification ---------------------------------------------------

/// The serial walk definition unification replaced, kept as the
/// reference: every rank in order, get_or_add at every Enter into one
/// tree.
report::CallTree serial_call_tree(const tracing::TraceCollection& tc) {
  report::CallTree calls;
  for (const auto& t : tc.ranks) {
    std::vector<CallPathId> stack;
    for (const auto& e : t.events) {
      if (e.type == EventType::Enter)
        stack.push_back(calls.get_or_add(
            stack.empty() ? CallPathId{} : stack.back(), e.region));
      else if (e.type == EventType::Exit || e.type == EventType::CollExit)
        stack.pop_back();
    }
  }
  return calls;
}

/// Ranks that meet shared call paths in different orders: rank 1 has a
/// path of its own under one nobody else enters first, rank 2 meets b
/// before a.
tracing::TraceCollection divergent_paths_traces() {
  simmpi::ProgramBuilder b(3);
  b.on(0).enter("main").enter("a").exit().enter("b").barrier().exit().exit();
  b.on(1).enter("main").enter("c").enter("a").exit().exit();
  b.on(1).enter("b").barrier().exit().exit();
  b.on(2).enter("main").enter("b").barrier().exit().enter("a").exit().exit();
  return perfect_traces(simnet::make_ibm_power(3), b.take());
}

struct Workload {
  std::string name;
  simnet::Topology topo;
  tracing::TraceCollection traces;
};

/// The MetaTrace trace, the golden fixture's programs and a divergent
/// one.
std::vector<Workload> unification_workloads() {
  const auto viola = simnet::make_viola_experiment1();
  const auto two = simnet::make_ibm_power(2);
  const auto four = simnet::make_ibm_power(4);
  const auto run = [](const simnet::Topology& topo,
                      const simmpi::Program& prog) {
    return perfect_traces(topo, prog);
  };
  std::vector<Workload> out;
  out.push_back({"metatrace", viola, run(viola, workloads::build_metatrace())});
  out.push_back(
      {"late-sender", two, run(two, workloads::late_sender_program(0.25))});
  out.push_back({"late-receiver", two,
                 run(two, workloads::late_receiver_program(0.3, 1 << 20))});
  out.push_back(
      {"wait-nxn", four,
       run(four, workloads::wait_nxn_program({0.0, 0.1, 0.2, 0.4}))});
  out.push_back(
      {"wait-barrier", four,
       run(four, workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}))});
  out.push_back(
      {"early-reduce", four,
       run(four, workloads::early_reduce_program({0.0, 0.2, 0.5, 0.1}))});
  out.push_back({"late-broadcast", four,
                 run(four, workloads::late_broadcast_program(4, 0.35))});
  out.push_back({"random-viola", viola, jittered_traces(viola, 1ULL, 12)});
  out.push_back({"divergent-paths", simnet::make_ibm_power(3),
                 divergent_paths_traces()});
  return out;
}

TEST(DefinitionUnification, IdsEqualTheSerialWalksInBothModes) {
  const auto base = test_dir("unification");
  for (const Workload& w : unification_workloads()) {
    const report::CallTree want = serial_call_tree(w.traces);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}})
      EXPECT_EQ(prepare(w.traces, workers).calls, want)
          << w.name << " at " << workers << " workers";
    const auto src = stream_of(base, w.name, w.topo, w.traces);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{0}}) {
      ReplayOptions opts;
      opts.memory_budget_bytes = budget;
      EXPECT_EQ(analyze_streaming(src, opts).cube.calls, want)
          << w.name << " streamed at budget " << budget;
    }
  }
  std::filesystem::remove_all(base);
}

TEST(DefinitionUnification, LowestMalformedRankReportsWhateverTheSchedule) {
  const auto topo = simnet::make_ibm_power(8);
  auto tc = perfect_traces(topo, jittered_program(8, 5ULL, 6));
  // Rank 3 ends in 100,000 more regions and loses its last Exit, which
  // only the end of its walk can tell; rank 5 starts with an Exit, its
  // first event. On eight workers rank 5's walk fails long before rank
  // 3's.
  auto& three = tc.ranks[3].events;
  tracing::Event enter = three.front();
  tracing::Event exit = three.back();
  three.pop_back();
  enter.time = exit.time;
  for (int i = 0; i < 100000; ++i) three.insert(three.end(), {enter, exit});
  auto& five = tc.ranks[5].events;
  tracing::Event stray = five.back();
  stray.time = five.front().time;
  five.insert(five.begin(), stray);
  const std::string want = "malformed trace: rank 3 event " +
                           std::to_string(tc.ranks[3].events.size()) +
                           ": unclosed region";

  const auto message = [](const std::function<void()>& analyze) {
    try {
      analyze();
    } catch (const Error& e) {
      return e.base_message();
    }
    return std::string("no error");
  };
  const auto base = test_dir("lowest_malformed");
  const auto src = stream_of(base, "exp", topo, tc);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    ReplayOptions opts;
    opts.max_workers = workers;
    EXPECT_EQ(message([&] { (void)analyze_parallel(tc, opts); }), want)
        << workers << " workers";
    EXPECT_EQ(message([&] { (void)analyze_streaming(src, opts); }), want)
        << workers << " workers, streamed";
  }
  std::filesystem::remove_all(base);
}

// --- the message join ---------------------------------------------------------

/// The map matcher the join replaced, kept as the behavioural reference:
/// events in rank order, each taking the oldest waiting opposite event of
/// its (source, destination, tag, communicator) channel.
std::vector<tracing::MessagePair> reference_match(
    const tracing::TraceCollection& tc) {
  using Channel = std::tuple<Rank, Rank, int, int>;
  std::map<Channel, std::deque<tracing::EventRef>> sends;
  std::map<Channel, std::deque<tracing::EventRef>> recvs;
  std::vector<tracing::MessagePair> pairs;
  for (const auto& t : tc.ranks) {
    for (std::uint32_t i = 0; i < t.events.size(); ++i) {
      const auto& e = t.events[i];
      const tracing::EventRef me{t.rank, i};
      if (e.type != EventType::Send && e.type != EventType::Recv) continue;
      const bool send = e.type == EventType::Send;
      const Channel ch = send ? Channel{t.rank, e.peer, e.tag, e.comm.get()}
                              : Channel{e.peer, t.rank, e.tag, e.comm.get()};
      auto& waiting = send ? recvs[ch] : sends[ch];
      if (waiting.empty()) {
        (send ? sends[ch] : recvs[ch]).push_back(me);
        continue;
      }
      pairs.push_back(send ? tracing::MessagePair{me, waiting.front()}
                           : tracing::MessagePair{waiting.front(), me});
      waiting.pop_front();
    }
  }
  return pairs;
}

/// Ranks 0 and 1 exchange three rounds of two messages with the same tag,
/// one on the world communicator and one on a pair communicator; the
/// receiver takes each round's pair-communicator message first.
tracing::TraceCollection same_tag_two_comms_traces() {
  simmpi::ProgramBuilder b(2);
  const CommId pair = b.comms().create("pair", {0, 1});
  b.on(0).enter("main");
  b.on(1).enter("main");
  for (int round = 0; round < 3; ++round) {
    b.on(0).send(1, 7, 100.0 + round).send(1, 7, 200.0 + round, pair);
    b.on(1).compute(1e-5).recv(0, 7, pair).recv(0, 7);
  }
  b.on(0).exit();
  b.on(1).exit();
  return perfect_traces(simnet::make_ibm_power(2), b.take());
}

TEST(MessageJoin, PairsWhatTheMapMatcherPairedInCanonicalOrder) {
  const auto topo = simnet::make_viola_experiment1();
  const auto metatrace = perfect_traces(topo, workloads::build_metatrace());
  const auto by_receive = [](const tracing::MessagePair& a,
                             const tracing::MessagePair& b) {
    return std::tie(a.recv.rank, a.recv.index) <
           std::tie(b.recv.rank, b.recv.index);
  };
  for (const auto& [name, tc] :
       {std::pair("metatrace", metatrace),
        std::pair("interleaved tags", interleaved_tag_traces()),
        std::pair("same tag on two comms", same_tag_two_comms_traces())}) {
    const auto joined = tracing::match_messages(tc, 1);
    EXPECT_TRUE(std::is_sorted(joined.begin(), joined.end(), by_receive))
        << name;
    auto want = reference_match(tc);
    std::sort(want.begin(), want.end(), by_receive);
    auto got = joined;
    std::sort(got.begin(), got.end(), by_receive);
    EXPECT_EQ(got, want) << name;
    for (const std::size_t workers : {std::size_t{2}, std::size_t{8}})
      EXPECT_EQ(tracing::match_messages(tc, workers), joined)
          << name << " at " << workers << " workers";
  }
}

/// The streamed light pass keys each Send and Recv by its ordinal among
/// the rank's sends or receives; a wrong position or an unstable sort
/// would land a record in another message's slot on exactly these
/// traces.
TEST(MessageJoin, EnvelopeStressTracesStreamLikeParallel) {
  const auto base = test_dir("envelope_stress");
  const auto topo = simnet::make_ibm_power(2);
  for (const auto& [name, tc] :
       {std::pair("interleaved-tags", interleaved_tag_traces()),
        std::pair("same-tag-two-comms", same_tag_two_comms_traces())}) {
    const auto want = analyze_parallel(tc);
    const auto src = stream_of(base, name, topo, tc);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (const std::size_t budget :
           {std::size_t{1}, std::size_t{16 * 1024}, std::size_t{0}}) {
        ReplayOptions opts;
        opts.max_workers = workers;
        opts.memory_budget_bytes = budget;
        const auto got = analyze_streaming(src, opts);
        EXPECT_TRUE(want.cube.approx_equal(got.cube, 0.0))
            << name << " at " << workers << " workers, budget " << budget;
        EXPECT_EQ(got.stats.messages, want.stats.messages) << name;
      }
    }
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace metascope::analysis
