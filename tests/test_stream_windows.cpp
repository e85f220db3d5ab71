// Window-cursor edge cases for the out-of-core streaming replay:
// degenerate rank shapes (zero events, one window next to hundreds),
// quarantined ranks under permissive streaming, window boundaries
// falling mid-collective under a pathologically tiny budget, the
// resident-bytes accounting contract (only resident windows count, the
// high-water mark responds to the budget and sits far below the
// materialized collection), and error parity with the materialized
// path: the same ErrorCode for damaged archives and out-of-range ids,
// the same diagnostic for structurally malformed traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "archive/archive.hpp"
#include "common/binary_io.hpp"
#include "common/column_codec.hpp"
#include "common/error.hpp"
#include "container_edit.hpp"
#include "simmpi/program.hpp"
#include "simnet/topology.hpp"
#include "telemetry/metrics.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::analysis {
namespace {

namespace fs = std::filesystem;
using tracing::EventType;

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

class StreamWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("msc_stream_win_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  /// Writes the collection into a v3 archive under the test's temp dir.
  archive::ExperimentArchive write_archive(
      const simnet::Topology& topo, const tracing::TraceCollection& tc) {
    layout_ = archive::FileSystemLayout::shared(base_, topo.num_metahosts());
    auto arch = archive::ExperimentArchive::create(topo, layout_, "exp");
    arch.write_traces(topo, tc);
    return arch;
  }

  /// The one trace container of the shared layout.
  [[nodiscard]] std::string container_path() const {
    return base_ + "/exp.msc/" + tracing::container_filename();
  }
  [[nodiscard]] std::vector<std::uint8_t> read_blob(Rank r) const {
    return test::read_blob(container_path(), r);
  }
  void write_blob(Rank r, const std::vector<std::uint8_t>& blob) const {
    test::replace_blob(container_path(), r, blob);
  }

  std::string base_;
  archive::FileSystemLayout layout_{
      archive::FileSystemLayout::shared("/tmp", 1)};
};

tracing::TraceCollection run_none(const simnet::Topology& topo,
                                  const simmpi::Program& prog) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  return workloads::run_experiment(topo, prog, cfg).traces;
}

// --- zero-event ranks ----------------------------------------------------

/// Three ranks, the middle one recorded nothing at all (its trace file
/// is a valid v3 encoding with zero events); the outer two exchange one
/// message. Hand-built so the empty trace is genuinely empty (no
/// measurement scaffolding events).
tracing::TraceCollection zero_event_middle_rank() {
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  const RegionId main_r = tc.defs.regions.intern("main");
  const RegionId send_r = tc.defs.regions.intern("MPI_Send");
  const RegionId recv_r = tc.defs.regions.intern("MPI_Recv");
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  for (Rank r = 0; r < 3; ++r)
    tc.defs.locations.push_back({MetahostId{0}, NodeId{r}, r, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0, 1, 2}});
  auto msg = [&](tracing::LocalTrace& t, EventType type, double time,
                 Rank peer) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.peer = peer;
    e.tag = 1;
    e.comm = CommId{0};
    t.events.push_back(e);
  };
  auto frame = [&](tracing::LocalTrace& t, EventType type, double time,
                   RegionId region) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.region = region;
    t.events.push_back(e);
  };
  tracing::LocalTrace t0;
  t0.rank = 0;
  frame(t0, EventType::Enter, 0.0, main_r);
  frame(t0, EventType::Enter, 0.1, send_r);
  msg(t0, EventType::Send, 0.1, 2);
  frame(t0, EventType::Exit, 0.2, RegionId{});
  frame(t0, EventType::Exit, 0.3, RegionId{});
  tracing::LocalTrace t1;
  t1.rank = 1;  // recorded nothing
  tracing::LocalTrace t2;
  t2.rank = 2;
  frame(t2, EventType::Enter, 0.0, main_r);
  frame(t2, EventType::Enter, 0.05, recv_r);
  msg(t2, EventType::Recv, 0.25, 0);
  frame(t2, EventType::Exit, 0.3, RegionId{});
  frame(t2, EventType::Exit, 0.35, RegionId{});
  tc.ranks.push_back(std::move(t0));
  tc.ranks.push_back(std::move(t1));
  tc.ranks.push_back(std::move(t2));
  return tc;
}

TEST_F(StreamWindowTest, ZeroEventRankStreamsCleanAtEveryBudget) {
  const auto topo = local_topo(3);
  const auto tc = zero_event_middle_rank();
  const auto serial = analyze_serial(tc);
  const auto arch = write_archive(topo, tc);
  const auto src = arch.stream_source(archive::ReadOptions{});
  for (const std::size_t budget : {std::size_t{1}, std::size_t{1} << 20}) {
    ReplayOptions opts;
    opts.memory_budget_bytes = budget;
    const auto res = analyze_streaming(src, opts);
    EXPECT_TRUE(serial.cube.approx_equal(res.cube, 0.0))
        << "budget=" << budget;
    EXPECT_EQ(res.stats.events, serial.stats.events);
    EXPECT_EQ(res.stats.messages, 1u);
  }
}

// --- one-window rank next to a hundreds-of-windows rank ------------------

/// Ranks 0/1 exchange `rounds` tagged messages; rank 2 sends exactly one
/// message to rank 0. Under a tiny budget (single-event windows) ranks
/// 0/1 take hundreds of windows while rank 2 finishes in one.
simmpi::Program lopsided_program(int rounds) {
  simmpi::ProgramBuilder b(3);
  for (Rank r = 0; r < 3; ++r) b.on(r).enter("main");
  for (int i = 0; i < rounds; ++i) {
    b.on(0).enter("ping").send(1, i, 64.0).exit();
    b.on(1).enter("ping").recv(0, i).exit();
    b.on(1).enter("pong").send(0, 100000 + i, 64.0).exit();
    b.on(0).enter("pong").recv(1, 100000 + i).exit();
  }
  b.on(2).enter("solo").send(0, 999999, 64.0).exit();
  b.on(0).enter("solo").recv(2, 999999).exit();
  for (Rank r = 0; r < 3; ++r) b.on(r).exit();
  return b.take();
}

TEST_F(StreamWindowTest, OneWindowRankBesideHundredsOfWindowsRank) {
  const auto topo = local_topo(3);
  const auto tc = run_none(topo, lopsided_program(300));
  const auto serial = analyze_serial(tc);
  const auto arch = write_archive(topo, tc);
  const auto src = arch.stream_source(archive::ReadOptions{});

  telemetry::Registry::instance().reset();
  ReplayOptions opts;
  opts.memory_budget_bytes = 1;  // floors at one event per rank per window
  const auto res = analyze_streaming(src, opts);
  EXPECT_TRUE(serial.cube.approx_equal(res.cube, 0.0));
  EXPECT_EQ(res.stats.events, serial.stats.events);
  // Ranks 0/1 each carry 300+ message events, one per window; rank 2
  // fits in a couple. The window count must reflect the imbalance.
  EXPECT_GE(telemetry::counter("analysis.stream.windows").value(), 600u);
}

// --- window boundaries mid-collective ------------------------------------

/// Staggered collectives back to back: with single-event windows every
/// CollExit sits on a window boundary, so instances routinely span
/// windows on some ranks while others have already moved on.
simmpi::Program collective_storm(int rounds) {
  simmpi::ProgramBuilder b(4);
  for (Rank r = 0; r < 4; ++r) b.on(r).enter("main");
  for (int i = 0; i < rounds; ++i) {
    for (Rank r = 0; r < 4; ++r)
      b.on(r).compute(0.001 * ((r + i) % 4)).barrier();
    for (Rank r = 0; r < 4; ++r)
      b.on(r).compute(0.0005 * ((r * 3 + i) % 4)).allreduce(256.0);
    const Rank root = i % 4;
    for (Rank r = 0; r < 4; ++r) b.on(r).bcast(root, 4096.0);
  }
  for (Rank r = 0; r < 4; ++r) b.on(r).exit();
  return b.take();
}

TEST_F(StreamWindowTest, WindowBoundaryMidCollectiveNeitherDeadlocksNorDrifts) {
  const auto topo = local_topo(4);
  const auto tc = run_none(topo, collective_storm(40));
  const auto serial = analyze_serial(tc);
  const auto arch = write_archive(topo, tc);
  const auto src = arch.stream_source(archive::ReadOptions{});
  for (const std::size_t budget : {std::size_t{1}, std::size_t{2048}}) {
    ReplayOptions opts;
    opts.memory_budget_bytes = budget;
    const auto res = analyze_streaming(src, opts);
    EXPECT_TRUE(serial.cube.approx_equal(res.cube, 0.0))
        << "budget=" << budget;
    EXPECT_EQ(res.stats.collective_instances,
              serial.stats.collective_instances);
  }
}

// --- quarantined ranks under permissive streaming ------------------------

TEST_F(StreamWindowTest, PermissiveStreamingMatchesPermissiveMaterialized) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 4;
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, 1, 4);

  workloads::MetaTraceConfig mt;
  mt.trace_ranks = 2;
  mt.partrace_ranks = 2;
  mt.dims[0] = 2;
  mt.dims[1] = 1;
  mt.dims[2] = 1;
  mt.coupling_steps = 2;
  mt.cg_iterations = 3;
  const auto tc = run_none(topo, workloads::build_metatrace(mt));
  const auto arch = write_archive(topo, tc);

  // Damage rank 2 mid-payload: open-time validation quarantines it.
  auto bytes = read_blob(2);
  bytes.resize(bytes.size() - bytes.size() / 4);
  write_blob(2, bytes);

  archive::ReadOptions popts;
  popts.permissive = true;
  archive::ReadReport mat_report;
  const auto pruned = arch.read_traces(popts, &mat_report);
  const auto want = analyze_serial(pruned);

  archive::ReadReport stream_report;
  const auto src = arch.stream_source(popts, &stream_report);
  ASSERT_EQ(stream_report.quarantined.size(), mat_report.quarantined.size());
  EXPECT_EQ(stream_report.quarantined[0].rank, mat_report.quarantined[0].rank);
  EXPECT_EQ(stream_report.quarantined[0].code, mat_report.quarantined[0].code);
  EXPECT_EQ(src.quarantined, mat_report.quarantined_ranks());

  for (const std::size_t budget : {std::size_t{1}, std::size_t{64} << 10}) {
    ReplayOptions opts;
    opts.memory_budget_bytes = budget;
    const auto res = analyze_streaming(src, opts);
    EXPECT_TRUE(want.cube.approx_equal(res.cube, 0.0))
        << "budget=" << budget;
    EXPECT_EQ(res.stats.events, want.stats.events);
    EXPECT_EQ(res.stats.messages, want.stats.messages);
  }
}

// --- resident-bytes accounting -------------------------------------------

TEST_F(StreamWindowTest, ResidentBytesCountOnlyResidentWindows) {
  // A message-heavy eight-rank ring: big enough that the materialized
  // collection dwarfs any sane window.
  simmpi::ProgramBuilder b(8);
  for (Rank r = 0; r < 8; ++r) b.on(r).enter("main");
  std::vector<int> reqs(8);
  for (int i = 0; i < 300; ++i) {
    for (Rank r = 0; r < 8; ++r) {
      auto& c = b.on(r);
      c.enter("shift");
      reqs[static_cast<std::size_t>(r)] = c.irecv((r + 7) % 8, i);
      c.send((r + 1) % 8, i, 256.0);
      c.wait(reqs[static_cast<std::size_t>(r)]);
      c.exit();
    }
  }
  for (Rank r = 0; r < 8; ++r) b.on(r).exit();
  const auto topo = local_topo(8);
  const auto tc = run_none(topo, b.take());

  const auto materialized = analyze_parallel(tc);
  const auto arch = write_archive(topo, tc);
  const auto src = arch.stream_source(archive::ReadOptions{});

  ReplayOptions small;
  small.memory_budget_bytes = 4096;
  const auto res_small = analyze_streaming(src, small);
  ReplayOptions large;
  large.memory_budget_bytes = std::size_t{1} << 30;
  const auto res_large = analyze_streaming(src, large);

  EXPECT_TRUE(materialized.cube.approx_equal(res_small.cube, 0.0));
  EXPECT_TRUE(materialized.cube.approx_equal(res_large.cube, 0.0));

  // The high-water mark counts only resident windows: far below the
  // whole materialized collection (the bench gate targets >= 4x; this
  // workload clears it comfortably) and responsive to the budget.
  ASSERT_GT(res_small.stats.trace_bytes_in_memory, 0u);
  EXPECT_LE(res_small.stats.trace_bytes_in_memory * 4,
            materialized.stats.trace_bytes_in_memory);
  EXPECT_LT(res_small.stats.trace_bytes_in_memory,
            res_large.stats.trace_bytes_in_memory);
  EXPECT_EQ(res_small.stats.events, materialized.stats.events);
}

// --- ErrorCode parity with the materialized read -------------------------

TEST_F(StreamWindowTest, TruncatedMidBlockStreamingMatchesBatchErrorCode) {
  const auto topo = local_topo(3);
  const auto tc = run_none(topo, lopsided_program(40));
  const auto arch = write_archive(topo, tc);

  auto bytes = read_blob(1);
  bytes.resize(bytes.size() - bytes.size() / 3);  // cut inside the columns
  write_blob(1, bytes);

  ErrorCode batch_code = ErrorCode::None;
  Rank batch_rank = kNoRank;
  std::int64_t batch_offset = -1;
  try {
    (void)arch.read_traces();
    FAIL() << "batch read succeeded on a truncated file";
  } catch (const Error& e) {
    batch_code = e.code();
    batch_rank = e.context().rank;
    batch_offset = e.context().byte_offset;
    EXPECT_EQ(e.context().path, container_path());
  }
  try {
    const auto src = arch.stream_source(archive::ReadOptions{});
    (void)analyze_streaming(src, ReplayOptions{});
    FAIL() << "streaming succeeded on a truncated file";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), batch_code) << e.what();
    EXPECT_EQ(e.context().rank, batch_rank) << e.what();
    EXPECT_EQ(e.context().path, container_path()) << e.what();
    // The same byte, counted from the container's start.
    EXPECT_EQ(e.context().byte_offset, batch_offset) << e.what();
    EXPECT_GT(e.context().byte_offset,
              static_cast<std::int64_t>(
                  test::extent_of(container_path(), 1).offset));
  }
}

/// The errors a strict materialized analysis (read_traces, then
/// analyze_parallel) and a strict streamed one raise on `arch`, at
/// workers {1, 8}, must agree on code, rank and offset; returns the
/// materialized ones.
std::vector<Error> expect_same_errors(const archive::ExperimentArchive& arch) {
  const auto caught = [](const std::function<void()>& analyze) {
    try {
      analyze();
    } catch (const Error& e) {
      return e;
    }
    return Error("no error");
  };
  std::vector<Error> out;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    archive::ReadOptions read;
    read.max_workers = workers;
    ReplayOptions opts;
    opts.max_workers = workers;
    const Error materialized = caught(
        [&] { (void)analyze_parallel(arch.read_traces(read), opts); });
    const Error streamed = caught(
        [&] { (void)analyze_streaming(arch.stream_source(read), opts); });
    EXPECT_EQ(streamed.code(), materialized.code()) << streamed.what();
    EXPECT_EQ(streamed.context().rank, materialized.context().rank)
        << streamed.what();
    EXPECT_EQ(streamed.context().byte_offset,
              materialized.context().byte_offset)
        << streamed.what();
    out.push_back(materialized);
  }
  return out;
}

TEST_F(StreamWindowTest, TwoDamagedRanksFailOnTheLowestInBothModes) {
  const auto topo = local_topo(3);
  const auto arch = write_archive(topo, run_none(topo, lopsided_program(40)));
  for (const Rank r : {2, 1}) {
    auto bytes = read_blob(r);
    bytes[0] ^= 0xFF;  // bad magic
    write_blob(r, bytes);
  }
  for (const Error& e : expect_same_errors(arch)) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.context().rank, 1) << e.what();
  }
}

TEST_F(StreamWindowTest, ZeroByteFileQuarantinedPermissivelyLikeBatch) {
  const auto topo = local_topo(3);
  const auto tc = run_none(topo, lopsided_program(10));
  const auto arch = write_archive(topo, tc);
  write_blob(0, {});

  EXPECT_THROW((void)arch.stream_source(archive::ReadOptions{}), Error);

  archive::ReadOptions popts;
  popts.permissive = true;
  archive::ReadReport report;
  const auto src = arch.stream_source(popts, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].rank, 0);
  EXPECT_EQ(report.quarantined[0].code, ErrorCode::Truncated);

  const auto pruned = arch.read_traces(popts);
  const auto want = analyze_serial(pruned);
  const auto res = analyze_streaming(src, ReplayOptions{});
  EXPECT_TRUE(want.cube.approx_equal(res.cube, 0.0));
}

// --- one structural walk, one id range ------------------------------------

tracing::Event event_at(EventType type, double time) {
  tracing::Event e;
  e.type = type;
  e.time = time;
  return e;
}

tracing::Event enter_at(RegionId region, double time) {
  tracing::Event e = event_at(EventType::Enter, time);
  e.region = region;
  return e;
}

/// One rank holding exactly `events`, with regions main (0) and
/// MPI_Barrier (1) and a one-member world communicator.
tracing::TraceCollection one_rank(std::vector<tracing::Event> events) {
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  tc.defs.regions.intern("main");
  tc.defs.regions.intern("MPI_Barrier");
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  tc.defs.locations.push_back({MetahostId{0}, NodeId{0}, 0, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0}});
  tracing::LocalTrace t;
  t.rank = 0;
  t.events.assign(events.begin(), events.end());
  tc.ranks.push_back(std::move(t));
  return tc;
}

/// main { MPI_Barrier on `comm` }.
std::vector<tracing::Event> barrier_events(int comm) {
  tracing::Event coll = event_at(EventType::CollExit, 0.2);
  coll.region = RegionId{1};
  coll.comm = CommId{comm};
  return {enter_at(RegionId{0}, 0.0), enter_at(RegionId{1}, 0.1), coll,
          event_at(EventType::Exit, 0.3)};
}

TEST_F(StreamWindowTest, StructuralErrorsMatchBetweenModes) {
  tracing::Event send = event_at(EventType::Send, 0.0);
  send.peer = 0;
  const struct {
    const char* what;
    std::vector<tracing::Event> events;
  } shapes[] = {
      {"Exit without Enter", {event_at(EventType::Exit, 0.0)}},
      {"unclosed region", {enter_at(RegionId{0}, 0.0)}},
      {"negative region duration",
       {enter_at(RegionId{0}, 1.0), event_at(EventType::Exit, 0.5)}},
      {"message event outside any region", {send}},
      {"collective on an unknown communicator", barrier_events(7)},
  };
  const auto topo = local_topo(1);
  for (const auto& shape : shapes) {
    const auto tc = one_rank(shape.events);
    std::string materialized, streamed;
    try {
      (void)analyze_parallel(tc);
    } catch (const Error& e) {
      materialized = e.base_message();
    }
    const auto arch = write_archive(topo, tc);
    try {
      (void)analyze_streaming(arch.stream_source(archive::ReadOptions{}),
                              ReplayOptions{});
    } catch (const Error& e) {
      streamed = e.base_message();
    }
    EXPECT_NE(materialized.find(shape.what), std::string::npos)
        << shape.what << ": " << materialized;
    EXPECT_EQ(streamed, materialized) << shape.what;
  }
}

TEST_F(StreamWindowTest, DecodeErrorBeatsAnEarlierWalkErrorInBothModes) {
  // Exit without Enter at event 0, and the last column's last varint
  // made to run past its frame: the materialized read fails on the
  // payload before prepare walks anything, so the streamed light pass
  // must drain past its walk error to report the same.
  std::vector<tracing::Event> events{event_at(EventType::Exit, 0.0)};
  for (int i = 0; i < 600; ++i) {
    events.push_back(enter_at(RegionId{i % 2}, 1.0 + i));
    events.push_back(event_at(EventType::Exit, 1.5 + i));
  }
  const auto arch = write_archive(local_topo(1), one_rank(events));
  auto bytes = read_blob(0);
  bytes.back() |= 0x80;
  write_blob(0, bytes);
  for (const Error& e : expect_same_errors(arch)) {
    EXPECT_NE(e.code(), ErrorCode::None) << e.what();
    EXPECT_EQ(e.context().rank, 0) << e.what();
  }
}

/// The trace file of one_rank(barrier_events(...)), built column by
/// column so CollExit's comm column can hold a value no Event can carry.
std::vector<std::uint8_t> barrier_file(std::int64_t comm) {
  BufWriter w;
  w.put_u32(0x5453434DU);  // "MCST"
  w.put_u32(tracing::kTraceFormatVersion);
  w.put_svarint(0);  // rank
  w.put_varint(0);   // sync records
  w.put_varint(4);   // events
  for (const std::uint64_t n : {2, 1, 0, 0, 1}) w.put_varint(n);  // by type
  w.put_u8(0x00);  // Enter, Enter
  w.put_u8(0x14);  // CollExit, Exit
  const auto frame = [&w](const BufWriter& col) {
    w.put_varint(col.size());
    w.put_bytes(col.data().data(), col.size());
  };
  const auto ints = [&](const std::vector<std::int64_t>& v) {
    BufWriter col;
    colcodec::encode_int_column(col, v.data(), v.size());
    frame(col);
  };
  const auto doubles = [&](const std::vector<double>& v) {
    BufWriter col;
    colcodec::encode_double_column(col, v.data(), v.size());
    frame(col);
  };
  doubles({0.0, 0.1, 0.2, 0.3});  // time
  ints({0, 1});                   // enter.region
  ints({1});                      // collexit.region
  ints({comm});                   // collexit.comm
  ints({kNoRank});                // collexit.root
  for (int i = 0; i < 3; ++i) doubles({0.0});  // collexit byte counts
  return w.data();
}

TEST_F(StreamWindowTest, OutOfRangeIdIsCorruptInBothModes) {
  const auto tc = one_rank(barrier_events(0));
  ASSERT_EQ(barrier_file(0), tracing::encode_local_trace(tc.ranks[0]));
  const auto arch = write_archive(local_topo(1), tc);
  write_blob(0, barrier_file(std::int64_t{1} << 32));

  const auto expect_corrupt = [](const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_NE(std::string(e.what()).find("collexit.comm"), std::string::npos)
        << e.what();
  };
  try {
    (void)arch.read_traces();
    ADD_FAILURE() << "materialized read accepted comm 2^32";
  } catch (const Error& e) {
    expect_corrupt(e);
  }
  try {
    (void)analyze_streaming(arch.stream_source(archive::ReadOptions{}),
                            ReplayOptions{});
    ADD_FAILURE() << "streaming analysis accepted comm 2^32";
  } catch (const Error& e) {
    expect_corrupt(e);
  }
}

}  // namespace
}  // namespace metascope::analysis
