#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "container_edit.hpp"
#include "simmpi/program.hpp"
#include "telemetry/metrics.hpp"
#include "tracing/epilog_io.hpp"
#include "simnet/presets.hpp"
#include "tracing/measurement.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::archive {
namespace {

namespace fs = std::filesystem;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("msc_archive_" +
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

  std::string base_;
};

TEST_F(ArchiveTest, SharedFileSystemCreatesOneDirectory) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::shared(base_, topo.num_metahosts());
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 1u);
  EXPECT_TRUE(fs::exists(base_ + "/exp.msc"));
  EXPECT_EQ(stats.directories_created, 1);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.broadcasts, 1);
  EXPECT_EQ(stats.allreduces, 1);
}

TEST_F(ArchiveTest, PerMetahostLayoutCreatesPartialArchives) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 3u);
  for (int m = 0; m < 3; ++m)
    EXPECT_TRUE(fs::exists(base_ + "/fs" + std::to_string(m) + "/exp.msc"));
  EXPECT_EQ(stats.directories_created, 3);
}

TEST_F(ArchiveTest, CustomLayoutSharesSelectively) {
  const auto topo = simnet::make_viola_experiment1();
  // CAESAR and FH-BRS share an NFS root; FZJ is separate.
  const auto layout = FileSystemLayout::custom(
      {base_ + "/nfs", base_ + "/nfs", base_ + "/fzj"});
  EXPECT_TRUE(layout.same_fs(MetahostId{0}, MetahostId{1}));
  EXPECT_FALSE(layout.same_fs(MetahostId{0}, MetahostId{2}));
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 2u);
  EXPECT_EQ(stats.directories_created, 2);
}

TEST_F(ArchiveTest, ProtocolAttemptsScaleWithMetahostsNotRanks) {
  const auto topo = simnet::make_viola_experiment1();  // 32 ranks
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  CreationStats hier;
  ExperimentArchive::create(topo, layout, "h", &hier);
  CreationStats naive;
  ExperimentArchive::create_naive(topo, layout, "n", &naive);
  EXPECT_LE(hier.create_attempts, topo.num_metahosts());
  EXPECT_EQ(naive.create_attempts, topo.num_ranks());
  EXPECT_LT(hier.create_attempts, naive.create_attempts);
}

TEST_F(ArchiveTest, TracesRoundTripThroughPartialArchives) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  EXPECT_EQ(loaded.defs.metahosts, data.traces.defs.metahosts);
}

TEST_F(ArchiveTest, EachRankTraceLandsOnItsOwnFileSystem) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  // Each metahost's container holds exactly its own ranks, ascending —
  // so every rank's trace is on its own file system and nowhere else —
  // and no partial archive holds a file per rank.
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const std::string dir = layout.root_of(MetahostId{m}) + "/mt.msc";
    std::vector<Rank> held;
    for (const auto& e :
         test::container_extents(dir + "/" + tracing::container_filename()))
      held.push_back(e.rank);
    EXPECT_EQ(held, topo.ranks_on(MetahostId{m})) << dir;
    for (Rank r = 0; r < topo.num_ranks(); ++r)
      EXPECT_FALSE(fs::exists(dir + "/" + tracing::trace_filename(r)));
  }
}

TEST_F(ArchiveTest, SharedLayoutWritesOneContainer) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout = FileSystemLayout::shared(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "one");
  arch.write_traces(topo, data.traces);
  // One directory: the defs, one container holding every rank in
  // order, and one manifest per metahost.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(base_ + "/one.msc")) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u + static_cast<std::size_t>(topo.num_metahosts()));
  const auto extents =
      test::container_extents(base_ + "/one.msc/" + tracing::container_filename());
  ASSERT_EQ(extents.size(), static_cast<std::size_t>(topo.num_ranks()));
  std::uint64_t offset = 0;
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const auto& e = extents[static_cast<std::size_t>(r)];
    EXPECT_EQ(e.rank, r);
    EXPECT_EQ(e.offset, offset);
    // Each blob is byte for byte the rank's own encoding.
    EXPECT_EQ(e.length, tracing::encode_local_trace(
                            data.traces.ranks[static_cast<std::size_t>(r)])
                            .size());
    offset += e.length;
  }
  const auto loaded = arch.read_traces();
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
}

TEST_F(ArchiveTest, FilesWrittenCounterCountsArchiveFiles) {
  // Two metahosts, each with its own file system: each partial archive
  // gets the defs, one container and one manifest — six files for any
  // rank count. bytes_on_disk counts the defs and the containers whole,
  // container framing included.
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 3;
  simnet::MetahostSpec b = a;
  b.name = "B";
  topo.place_block(topo.add_metahost(a), 3, 1);
  topo.place_block(topo.add_metahost(b), 3, 1);
  simmpi::ProgramBuilder pb(topo.num_ranks());
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    pb.on(r).enter("main").barrier().exit();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  const auto data = workloads::run_experiment(topo, pb.take(), cfg);

  const auto layout = FileSystemLayout::per_metahost(base_, 2);
  const auto arch = ExperimentArchive::create(topo, layout, "n");
  telemetry::Registry::instance().reset();
  arch.write_traces(topo, data.traces);
  EXPECT_EQ(telemetry::counter("archive.files_written").value(), 6u);
  std::uint64_t on_disk = 0;
  for (const auto& dir : arch.partial_dirs())
    on_disk += fs::file_size(dir + "/" + tracing::defs_filename()) +
               fs::file_size(dir + "/" + tracing::container_filename());
  EXPECT_EQ(telemetry::counter("archive.bytes_on_disk").value(), on_disk);
}

TEST_F(ArchiveTest, ManifestsWrittenPerMetahost) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const std::string path =
        arch.dir_of(MetahostId{m}) + "/manifest." + std::to_string(m) +
        ".json";
    ASSERT_TRUE(fs::exists(path));
    const metascope::Json manifest = load_json_file(path);
    EXPECT_EQ(manifest.at("experiment").as_string(), "mt");
    EXPECT_EQ(manifest.at("metahost_id").as_int(), m);
    EXPECT_EQ(manifest.at("ranks").as_array().size(),
              topo.ranks_on(MetahostId{m}).size());
  }
}

TEST_F(ArchiveTest, ZeroEventRanksRoundTrip) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  auto data = workloads::run_experiment(topo, prog, cfg);
  // Ranks that recorded nothing (e.g. spawned but never instrumented)
  // must survive the archive round trip as empty traces.
  for (Rank r : {0, 5, 31})
    data.traces.ranks[static_cast<std::size_t>(r)].events.clear();
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "z");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  EXPECT_TRUE(loaded.ranks[0].events.empty());
}

TEST_F(ArchiveTest, MetahostWithoutRanksRoundTrips) {
  // Three metahosts, ranks placed on only the first two: the third still
  // gets a partial archive with defs + an empty manifest, and reading
  // the archive back skips it cleanly.
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 2;
  simnet::MetahostSpec b = a;
  b.name = "B";
  simnet::MetahostSpec c = a;
  c.name = "Idle";
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.add_metahost(c);
  topo.place_block(ia, 2, 1);
  topo.place_block(ib, 2, 1);

  simmpi::ProgramBuilder pb(topo.num_ranks());
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    pb.on(r).enter("main").barrier().exit();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  const auto data = workloads::run_experiment(topo, pb.take(), cfg);

  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "idle");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  const std::string manifest_path =
      arch.dir_of(MetahostId{2}) + "/manifest.2.json";
  ASSERT_TRUE(fs::exists(manifest_path));
  const metascope::Json manifest = load_json_file(manifest_path);
  EXPECT_EQ(manifest.at("ranks").as_array().size(), 0u);
  // Its container is valid and empty: an index of zero entries.
  const std::string idle =
      arch.dir_of(MetahostId{2}) + "/" + tracing::container_filename();
  EXPECT_EQ(fs::file_size(idle), 1u + tracing::kContainerTrailerBytes);
  EXPECT_TRUE(test::container_extents(idle).empty());
  // The streamed view skips it as cleanly as the materialized read.
  const auto src = arch.stream_source(ReadOptions{});
  EXPECT_TRUE(src.quarantined.empty());
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    EXPECT_EQ(src.extents[static_cast<std::size_t>(r)].path,
              arch.dir_of(topo.metahost_of(r)) + "/" +
                  tracing::container_filename());
}

/// `tc` with very uneven blobs: ranks 1, 2 and 9 empty, and rank 0 —
/// first in its container — a hundred times its size, so the ranks after
/// it finish encoding long before it does.
tracing::TraceCollection uneven_blobs(tracing::TraceCollection tc) {
  for (const std::size_t r : {1, 2, 9}) {
    tc.ranks[r].events.clear();
    tc.ranks[r].sync.clear();
  }
  auto& big = tc.ranks[0].events;
  const tracing::EventVector one = big;
  const double span = one.back().time - one.front().time + 1.0;
  for (int k = 1; k < 100; ++k) {
    for (tracing::Event e : one) {
      e.time += k * span;
      big.push_back(e);
    }
  }
  return tc;
}

TEST_F(ArchiveTest, ParallelWriteAndReadMatchSerial) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const tracing::TraceCollection collections[] = {
      data.traces, uneven_blobs(data.traces)};
  const int m = topo.num_metahosts();
  const std::string rel = "/w.msc/" + tracing::container_filename();
  for (std::size_t c = 0; c < std::size(collections); ++c) {
    for (const bool shared : {false, true}) {
      const auto layout = [&](std::size_t workers) {
        const std::string root = base_ + "/c" + std::to_string(c) +
                                 (shared ? "shared" : "split") + "_w" +
                                 std::to_string(workers);
        return shared ? FileSystemLayout::shared(root, m)
                      : FileSystemLayout::per_metahost(root, m);
      };
      std::vector<std::vector<std::uint8_t>> serial;
      for (const std::size_t workers :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const auto arch = ExperimentArchive::create(topo, layout(workers), "w");
        arch.write_traces(topo, collections[c], workers);
        // Byte-identical containers regardless of worker count.
        for (int mh = 0; mh < m; ++mh) {
          const auto bytes =
              read_file_bytes(layout(workers).root_of(MetahostId{mh}) + rel);
          if (workers == 1) {
            serial.push_back(bytes);
          } else {
            EXPECT_EQ(bytes, serial[static_cast<std::size_t>(mh)])
                << "collection " << c << (shared ? ", shared" : ", split")
                << ", metahost " << mh << ", " << workers << " workers";
          }
        }
        // And the parallel read reassembles the same collection.
        const auto loaded = arch.read_traces(8);
        for (int r = 0; r < loaded.num_ranks(); ++r)
          EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
                    collections[c].ranks[static_cast<std::size_t>(r)])
              << "collection " << c << ", rank " << r;
      }
    }
  }
}

/// Runs `write` on a thread of its own and aborts the test binary if it
/// has not returned within a minute: a writer stuck in a wait cannot be
/// joined, and a crash names the case where a hang would not.
template <typename Write>
void within_a_minute(const std::string& what, Write write) {
  auto done = std::async(std::launch::async, write);
  if (done.wait_for(std::chrono::minutes(1)) != std::future_status::ready) {
    std::fprintf(stderr, "write_traces hung: %s\n", what.c_str());
    std::abort();
  }
  done.get();
}

TEST_F(ArchiveTest, WriteErrorStopsEveryWorker) {
  const auto topo = simnet::make_viola_experiment1();
  const auto data = workloads::run_experiment(
      topo, workloads::build_metatrace(), workloads::ExperimentConfig{});
  const int m = topo.num_metahosts();
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // A trace filed in another rank's slot, in mid-container (metahost
    // 0 holds ranks 0..7).
    auto misfiled = data.traces;
    misfiled.ranks[5].rank = 6;
    const auto arch = ExperimentArchive::create(
        topo,
        FileSystemLayout::per_metahost(
            base_ + "/slot" + std::to_string(workers), m),
        "w");
    const std::string what = std::to_string(workers) + " workers";
    try {
      within_a_minute("rank slot mismatch, " + what, [&] {
        arch.write_traces(topo, misfiled, workers);
      });
      FAIL() << "misfiled rank written at " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("collection rank slot mismatch"),
                std::string::npos)
          << e.what();
    }
  }

  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Metahost 1's container lives on a full file system.
    const auto arch = ExperimentArchive::create(
        topo,
        FileSystemLayout::per_metahost(
            base_ + "/full" + std::to_string(workers), m),
        "w");
    const std::string container =
        arch.dir_of(MetahostId{1}) + "/" + tracing::container_filename();
    fs::create_symlink("/dev/full", container);
    const std::string what = std::to_string(workers) + " workers";
    try {
      within_a_minute("full container, " + what, [&] {
        arch.write_traces(topo, data.traces, workers);
      });
      FAIL() << "write to a full container succeeded at " << what;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
      EXPECT_EQ(e.context().path, container) << e.what();
    }
  }
}

TEST_F(ArchiveTest, TruncatedTraceFileFailsWithClearError) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "cut");
  arch.write_traces(topo, data.traces);
  const std::string victim = layout.root_of(topo.metahost_of(4)) +
                             "/cut.msc/" + tracing::container_filename();
  auto bytes = test::read_blob(victim, 4);
  bytes.resize(bytes.size() / 2);
  test::replace_blob(victim, 4, bytes);
  try {
    (void)arch.read_traces();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated trace file"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveTest, UnwritableRootAborts) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::custom(
      {"/proc/definitely/not/writable", base_ + "/b", base_ + "/c"});
  CreationStats stats;
  EXPECT_THROW(ExperimentArchive::create(topo, layout, "exp", &stats),
               Error);
  EXPECT_TRUE(stats.aborted);
}

TEST_F(ArchiveTest, LayoutValidation) {
  EXPECT_THROW(FileSystemLayout::shared(base_, 0), Error);
  EXPECT_THROW(FileSystemLayout::custom({}), Error);
  const auto layout = FileSystemLayout::shared(base_, 2);
  EXPECT_THROW((void)layout.root_of(MetahostId{5}), Error);
  const auto topo = simnet::make_viola_experiment1();  // 3 metahosts
  EXPECT_THROW(ExperimentArchive::create(topo, layout, "exp"), Error);
}

TEST_F(ArchiveTest, ExistingArchiveIsReused) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::shared(base_, 3);
  ExperimentArchive::create(topo, layout, "exp");
  CreationStats again;
  EXPECT_NO_THROW(ExperimentArchive::create(topo, layout, "exp", &again));
  EXPECT_EQ(again.directories_created, 0);
}

}  // namespace
}  // namespace metascope::archive
