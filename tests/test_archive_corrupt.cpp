// Corruption matrix for the hardened ingestion layer: every class of
// damage a trace archive can suffer, asserted against the exact
// ErrorCode the taxonomy promises in strict mode and against the
// quarantine-and-proceed contract in permissive mode (including
// serial == parallel determinism of the recovered collection and its
// severity cube).
#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "simnet/topology.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::archive {
namespace {

namespace fs = std::filesystem;

class ArchiveCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("msc_corrupt_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);

    // Two metahosts, two ranks each; a 2+2 metatrace gives every rank
    // p2p partners and collectives on more than one communicator.
    simnet::MetahostSpec a;
    a.name = "A";
    a.num_nodes = 1;
    a.cpus_per_node = 2;
    simnet::MetahostSpec b = a;
    b.name = "B";
    const auto ia = topo_.add_metahost(a);
    const auto ib = topo_.add_metahost(b);
    topo_.place_block(ia, 1, 2);
    topo_.place_block(ib, 1, 2);

    workloads::MetaTraceConfig mt;
    mt.trace_ranks = 2;
    mt.partrace_ranks = 2;
    mt.dims[0] = 2;
    mt.dims[1] = 1;
    mt.dims[2] = 1;
    mt.coupling_steps = 2;
    mt.cg_iterations = 3;

    workloads::ExperimentConfig cfg;
    cfg.perfect_clocks = true;
    cfg.measurement.scheme = tracing::SyncScheme::None;
    data_ = workloads::run_experiment(topo_, workloads::build_metatrace(mt),
                                      cfg);

    layout_ = FileSystemLayout::per_metahost(base_, topo_.num_metahosts());
    arch_ = ExperimentArchive::create(topo_, layout_, "exp");
    arch_.write_traces(topo_, data_.traces);
  }
  void TearDown() override { fs::remove_all(base_); }

  [[nodiscard]] std::string trace_path(Rank r) const {
    return layout_.root_of(topo_.metahost_of(r)) + "/exp.msc/" +
           tracing::trace_filename(r);
  }
  [[nodiscard]] std::string defs_path(int metahost) const {
    return layout_.root_of(MetahostId{metahost}) + "/exp.msc/" +
           tracing::defs_filename();
  }

  /// Strict read, asserting it fails with the exact code (and, when
  /// rank >= 0, that the error context names the file and rank).
  void expect_strict_failure(ErrorCode code, Rank rank,
                             const std::string& label) {
    try {
      (void)arch_.read_traces();
      FAIL() << label << ": expected Error, read succeeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << label << ": " << e.what();
      if (rank >= 0) {
        EXPECT_EQ(e.context().rank, rank) << label << ": " << e.what();
        EXPECT_EQ(e.context().path, trace_path(rank))
            << label << ": " << e.what();
      }
    }
  }

  std::string base_;
  simnet::Topology topo_;
  workloads::ExperimentData data_;
  FileSystemLayout layout_{FileSystemLayout::shared("/tmp", 1)};
  ExperimentArchive arch_;
};

TEST_F(ArchiveCorruptTest, TruncationAtEverySectionBoundary) {
  const Rank victim = 1;
  const auto intact = read_file_bytes(trace_path(victim));
  ASSERT_GT(intact.size(), 16u);
  struct Cut {
    const char* label;
    std::size_t keep;
  };
  const std::vector<Cut> cuts = {
      {"zero-byte file", 0},
      {"mid-magic", 3},
      {"magic only", 4},
      {"mid-version", 6},
      {"header only", 8},
      {"after rank id", 9},
      {"half the payload", intact.size() / 2},
      {"all but the last byte", intact.size() - 1},
  };
  for (const auto& cut : cuts) {
    write_file_bytes(
        trace_path(victim),
        std::vector<std::uint8_t>(
            intact.begin(),
            intact.begin() + static_cast<std::ptrdiff_t>(cut.keep)));
    expect_strict_failure(ErrorCode::Truncated, victim, cut.label);
  }
}

TEST_F(ArchiveCorruptTest, FlippedMagicIsCorrupt) {
  const Rank victim = 2;
  for (std::size_t byte = 0; byte < 4; ++byte) {
    auto bytes = read_file_bytes(trace_path(victim));
    bytes[byte] ^= 0x40;
    write_file_bytes(trace_path(victim), bytes);
    expect_strict_failure(ErrorCode::Corrupt, victim,
                          "magic byte " + std::to_string(byte));
  }
}

TEST_F(ArchiveCorruptTest, FutureVersionIsVersionMismatch) {
  const Rank victim = 0;
  auto bytes = read_file_bytes(trace_path(victim));
  bytes[4] = 99;  // header version field (u32 LE at offset 4)
  write_file_bytes(trace_path(victim), bytes);
  try {
    (void)arch_.read_traces();
    FAIL() << "expected VersionMismatch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::VersionMismatch) << e.what();
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    EXPECT_EQ(e.context().rank, victim);
  }
}

TEST_F(ArchiveCorruptTest, DefsVersionMismatchNamesTheFile) {
  // Damage the defs replica in EVERY partial archive: strict mode must
  // report VersionMismatch with the file path, and permissive mode has
  // no surviving replica to fall back to, so it fails the same way.
  for (int m = 0; m < topo_.num_metahosts(); ++m) {
    auto bytes = read_file_bytes(defs_path(m));
    bytes[4] = 99;
    write_file_bytes(defs_path(m), bytes);
  }
  for (const bool permissive : {false, true}) {
    try {
      ReadOptions opts;
      opts.permissive = permissive;
      (void)arch_.read_traces(opts);
      FAIL() << "expected VersionMismatch (permissive=" << permissive << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::VersionMismatch) << e.what();
      EXPECT_FALSE(e.context().path.empty());
    }
  }
}

TEST_F(ArchiveCorruptTest, CorruptDefsReplicaFallsBackPermissively) {
  // Only metahost 0's defs replica is damaged: permissive mode reads
  // the defs from the next partial archive and quarantines nothing.
  auto bytes = read_file_bytes(defs_path(0));
  bytes[0] ^= 0xFF;
  write_file_bytes(defs_path(0), bytes);

  ReadOptions opts;
  opts.permissive = true;
  ReadReport report;
  const auto loaded = arch_.read_traces(opts, &report);
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(loaded.num_ranks(), data_.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data_.traces.ranks[static_cast<std::size_t>(r)]);

  // Strict mode refuses: a damaged replica is an error even if another
  // copy exists.
  EXPECT_THROW((void)arch_.read_traces(), Error);
}

TEST_F(ArchiveCorruptTest, OversizedCountIsLimitExceeded) {
  const Rank victim = 3;
  BufWriter w;
  w.put_u32(0x5453434DU);  // "MCST"
  w.put_u32(tracing::kTraceFormatVersion);
  w.put_svarint(victim);
  w.put_varint(1ULL << 30);  // sync-record count far past the cap
  write_file_bytes(trace_path(victim), w.data());
  expect_strict_failure(ErrorCode::LimitExceeded, victim, "huge sync count");
}

TEST_F(ArchiveCorruptTest, CountLargerThanPayloadIsTruncated) {
  // A count below the absolute cap but impossible for the bytes present:
  // the decoder must reject it from the header alone, before reserving.
  const Rank victim = 3;
  BufWriter w;
  w.put_u32(0x5453434DU);
  w.put_u32(tracing::kTraceFormatVersion);
  w.put_svarint(victim);
  w.put_varint(0);     // no sync records
  w.put_varint(1000);  // ...but 1000 promised events and no payload
  write_file_bytes(trace_path(victim), w.data());
  try {
    (void)arch_.read_traces();
    FAIL() << "expected Truncated";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Truncated) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated trace file"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveCorruptTest, UnknownEventTypeIsCorruptRowWise) {
  // v2 carries the event type as a row byte.
  const Rank victim = 2;
  BufWriter w;
  w.put_u32(0x5453434DU);
  w.put_u32(2);
  w.put_svarint(victim);
  w.put_varint(0);
  w.put_varint(1);
  w.put_u8(200);  // no such EventType
  w.put_f64(1.0);
  write_file_bytes(trace_path(victim), w.data());
  expect_strict_failure(ErrorCode::Corrupt, victim, "unknown event type");
}

TEST_F(ArchiveCorruptTest, OutOfRangeIdIsCorruptRowWise) {
  // v2 stores ids as 64-bit svarints; a region id past int32 must be
  // rejected, not narrowed into some other region.
  const Rank victim = 2;
  BufWriter w;
  w.put_u32(0x5453434DU);
  w.put_u32(2);
  w.put_svarint(victim);
  w.put_varint(0);
  w.put_varint(1);
  w.put_u8(0);  // Enter
  w.put_f64(1.0);
  w.put_svarint(std::int64_t{1} << 40);
  write_file_bytes(trace_path(victim), w.data());
  expect_strict_failure(ErrorCode::Corrupt, victim, "enter.region 2^40");
}

TEST_F(ArchiveCorruptTest, UnknownEventTypeIsCorruptColumnar) {
  // v3 carries the event types as a nibble-packed stream right after
  // the header; flip the first event's nibble to an undefined type.
  // Header: magic 4 + version 4, then rank/nsync/nev/per-type counts as
  // varints — all single-byte for this workload's shape, so the stream
  // starts at a computable offset.
  const Rank victim = 2;
  const auto& trace = data_.traces.ranks[static_cast<std::size_t>(victim)];
  auto bytes = tracing::encode_local_trace(trace);
  ASSERT_LT(trace.events.size(), 128u) << "varint offsets shift";
  ASSERT_LT(trace.sync.size(), 64u);
  const std::size_t type_stream = 8 + 1 + 1 + 1 + 5;
  bytes[type_stream] = static_cast<std::uint8_t>(
      (bytes[type_stream] & 0xF0) | 0x0F);
  write_file_bytes(trace_path(victim), bytes);
  expect_strict_failure(ErrorCode::Corrupt, victim,
                        "unknown event type 15 in type stream");
}

TEST_F(ArchiveCorruptTest, ZeroLengthTraceFileTruncatedStrictQuarantinedPermissive) {
  // A zero-byte file is the degenerate mmap case (no mapping is
  // created): strict mode reports Truncated, permissive mode
  // quarantines the rank.
  const Rank victim = 1;
  write_file_bytes(trace_path(victim), {});
  try {
    (void)arch_.read_traces();
    FAIL() << "expected Truncated";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Truncated) << e.what();
    EXPECT_EQ(e.context().rank, victim);
  }
  ReadOptions permissive;
  permissive.permissive = true;
  ReadReport report;
  const auto loaded = arch_.read_traces(permissive, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].rank, victim);
  EXPECT_EQ(report.quarantined[0].code, ErrorCode::Truncated);
  EXPECT_TRUE(loaded.ranks[static_cast<std::size_t>(victim)].events.empty());
}

TEST_F(ArchiveCorruptTest, MmapAndCopyReadPathsAreByteIdentical) {
  // read_traces decodes out of mappings; decoding each file out of the
  // owned-buffer fallback (the only path on platforms without mmap)
  // must give the same traces.
  const auto mapped = arch_.read_traces();
  ASSERT_EQ(mapped.num_ranks(), data_.traces.num_ranks());
  for (Rank r = 0; r < mapped.num_ranks(); ++r) {
    const MappedFile copy = MappedFile::open(trace_path(r), false);
    ASSERT_FALSE(copy.mapped());
    EXPECT_EQ(mapped.ranks[static_cast<std::size_t>(r)],
              tracing::decode_local_trace(copy.data(), copy.size()))
        << "rank " << r;
  }
}

TEST_F(ArchiveCorruptTest, MmapPermissiveQuarantinesMidDecodeFailure) {
  // Damage a rank so its mapped decode fails partway through the
  // columnar payload (not at the header): the permissive read must
  // quarantine it and recover exactly the pruned survivors.
  const Rank victim = 2;
  auto bytes = read_file_bytes(trace_path(victim));
  bytes.resize(bytes.size() - bytes.size() / 4);
  write_file_bytes(trace_path(victim), bytes);

  ReadOptions opts;
  opts.permissive = true;
  ReadReport report;
  const auto recovered = arch_.read_traces(opts, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].rank, victim);
  EXPECT_EQ(report.quarantined[0].code, ErrorCode::Truncated);

  tracing::TraceCollection want = data_.traces;
  want.ranks[static_cast<std::size_t>(victim)] = tracing::LocalTrace{};
  want.ranks[static_cast<std::size_t>(victim)].rank = victim;
  tracing::prune_quarantined(want, {victim});
  ASSERT_EQ(recovered.num_ranks(), want.num_ranks());
  for (int r = 0; r < want.num_ranks(); ++r)
    EXPECT_EQ(recovered.ranks[static_cast<std::size_t>(r)],
              want.ranks[static_cast<std::size_t>(r)])
        << "rank " << r;
}

TEST_F(ArchiveCorruptTest, MissingTraceFileIsIoError) {
  const Rank victim = 1;
  fs::remove(trace_path(victim));
  expect_strict_failure(ErrorCode::Io, victim, "deleted trace file");
}

TEST_F(ArchiveCorruptTest, EmptyArchiveDirIsIoError) {
  for (const auto& dir : arch_.partial_dirs())
    for (const auto& entry : fs::directory_iterator(dir))
      fs::remove_all(entry.path());
  try {
    (void)arch_.read_traces();
    FAIL() << "expected Io error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
  }
}

TEST_F(ArchiveCorruptTest, PermissiveQuarantinesAndProceeds) {
  // Three victims, three damage classes: truncation, bad magic, missing
  // file. Permissive mode must quarantine exactly those ranks with the
  // matching codes (sorted by rank) and hand back decodable survivors.
  auto t1 = read_file_bytes(trace_path(1));
  t1.resize(t1.size() / 2);
  write_file_bytes(trace_path(1), t1);
  auto t2 = read_file_bytes(trace_path(2));
  t2[0] ^= 0xFF;
  write_file_bytes(trace_path(2), t2);
  fs::remove(trace_path(3));

  ReadOptions opts;
  opts.permissive = true;
  ReadReport report;
  const auto loaded = arch_.read_traces(opts, &report);

  ASSERT_EQ(report.quarantined.size(), 3u);
  EXPECT_EQ(report.quarantined[0].rank, 1);
  EXPECT_EQ(report.quarantined[0].code, ErrorCode::Truncated);
  EXPECT_EQ(report.quarantined[1].rank, 2);
  EXPECT_EQ(report.quarantined[1].code, ErrorCode::Corrupt);
  EXPECT_EQ(report.quarantined[2].rank, 3);
  EXPECT_EQ(report.quarantined[2].code, ErrorCode::Io);
  EXPECT_EQ(report.quarantined_ranks(), (std::vector<Rank>{1, 2, 3}));
  for (const auto& q : report.quarantined)
    EXPECT_FALSE(q.path.empty()) << "rank " << q.rank;

  ASSERT_EQ(loaded.num_ranks(), 4);
  EXPECT_TRUE(loaded.ranks[1].events.empty());
  EXPECT_TRUE(loaded.ranks[2].events.empty());
  EXPECT_TRUE(loaded.ranks[3].events.empty());
  EXPECT_FALSE(loaded.ranks[0].events.empty());
  // Rank 0 talked to quarantined peers, so pruning must have removed
  // something from its stream.
  EXPECT_GT(report.events_pruned, 0u);
  EXPECT_LT(loaded.ranks[0].events.size(),
            data_.traces.ranks[0].events.size());
}

TEST_F(ArchiveCorruptTest, PermissiveRecoveryIsDeterministicAndAnalyzable) {
  auto bytes = read_file_bytes(trace_path(2));
  bytes.resize(bytes.size() / 3);
  write_file_bytes(trace_path(2), bytes);

  ReadOptions serial;
  serial.permissive = true;
  serial.max_workers = 1;
  ReadOptions parallel;
  parallel.permissive = true;
  parallel.max_workers = 8;

  ReadReport rs, rp;
  const auto ls = arch_.read_traces(serial, &rs);
  const auto lp = arch_.read_traces(parallel, &rp);

  // Identical quarantine outcome and identical recovered collection,
  // independent of reader parallelism.
  ASSERT_EQ(rs.quarantined.size(), 1u);
  ASSERT_EQ(rp.quarantined.size(), 1u);
  EXPECT_EQ(rs.quarantined[0].rank, rp.quarantined[0].rank);
  EXPECT_EQ(rs.quarantined[0].code, rp.quarantined[0].code);
  EXPECT_EQ(rs.events_pruned, rp.events_pruned);
  ASSERT_EQ(ls.num_ranks(), lp.num_ranks());
  for (int r = 0; r < ls.num_ranks(); ++r)
    EXPECT_EQ(ls.ranks[static_cast<std::size_t>(r)],
              lp.ranks[static_cast<std::size_t>(r)])
        << "rank " << r;

  // The survivors stay analyzable end to end, and the severity cube is
  // bit-identical across serial/parallel reads and replays.
  const auto res_s = analysis::analyze_serial(ls);
  const auto res_p = analysis::analyze_parallel(lp);
  EXPECT_TRUE(res_s.cube.approx_equal(res_p.cube, 0.0));
}

TEST_F(ArchiveCorruptTest, StrictAndPermissiveAgreeOnCleanArchives) {
  ReadOptions opts;
  opts.permissive = true;
  ReadReport report;
  const auto permissive = arch_.read_traces(opts, &report);
  const auto strict = arch_.read_traces();
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.events_pruned, 0u);
  ASSERT_EQ(permissive.num_ranks(), strict.num_ranks());
  for (int r = 0; r < strict.num_ranks(); ++r)
    EXPECT_EQ(permissive.ranks[static_cast<std::size_t>(r)],
              strict.ranks[static_cast<std::size_t>(r)]);
}

}  // namespace
}  // namespace metascope::archive
