// Corruption matrix for the hardened ingestion layer: every class of
// damage a trace archive can suffer, asserted against the exact
// ErrorCode the taxonomy promises in strict mode and against the
// quarantine-and-proceed contract in permissive mode (including
// serial == parallel determinism of the recovered collection and its
// severity cube). A damaged rank is a damaged blob inside its partial
// archive's trace container (container_edit.hpp keeps the container
// consistent around it); damage to the container's own index or
// trailer fails every rank it holds.
#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "clocksync/correction.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "container_edit.hpp"
#include "simnet/presets.hpp"
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

  /// The trace container holding rank r.
  [[nodiscard]] std::string container_path(Rank r) const {
    return layout_.root_of(topo_.metahost_of(r)) + "/exp.msc/" +
           tracing::container_filename();
  }
  /// Replaces rank r's blob inside its container.
  void write_blob(Rank r, const std::vector<std::uint8_t>& blob) {
    test::replace_blob(container_path(r), r, blob);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_blob(Rank r) const {
    return test::read_blob(container_path(r), r);
  }
  /// The offset a strict read must report for a failure in rank r's
  /// blob: where decoding the blob alone fails, moved by the blob's
  /// start in its container (-1 if the decoder names no offset).
  [[nodiscard]] std::int64_t blob_failure_offset(Rank r) const {
    const auto at = test::extent_of(container_path(r), r);
    try {
      (void)tracing::decode_local_trace(read_blob(r));
    } catch (const Error& e) {
      return e.context().byte_offset < 0
                 ? -1
                 : e.context().byte_offset +
                       static_cast<std::int64_t>(at.offset);
    }
    ADD_FAILURE() << "rank " << r << "'s blob decodes on its own";
    return -1;
  }
  [[nodiscard]] std::string defs_path(int metahost) const {
    return layout_.root_of(MetahostId{metahost}) + "/exp.msc/" +
           tracing::defs_filename();
  }

  /// Strict read, asserting it fails with the exact code, and that the
  /// error context names the rank's container, the rank, and the
  /// container-absolute offset of the failure in its blob.
  void expect_strict_failure(ErrorCode code, Rank rank,
                             const std::string& label) {
    const std::int64_t offset = blob_failure_offset(rank);
    try {
      (void)arch_.read_traces();
      FAIL() << label << ": expected Error, read succeeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << label << ": " << e.what();
      EXPECT_EQ(e.context().rank, rank) << label << ": " << e.what();
      EXPECT_EQ(e.context().path, container_path(rank))
          << label << ": " << e.what();
      EXPECT_EQ(e.context().byte_offset, offset)
          << label << ": " << e.what();
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
  const auto intact = read_blob(victim);
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
    write_blob(
        victim,
        std::vector<std::uint8_t>(
            intact.begin(),
            intact.begin() + static_cast<std::ptrdiff_t>(cut.keep)));
    expect_strict_failure(ErrorCode::Truncated, victim, cut.label);
  }
}

TEST_F(ArchiveCorruptTest, FlippedMagicIsCorrupt) {
  const Rank victim = 2;
  for (std::size_t byte = 0; byte < 4; ++byte) {
    auto bytes = read_blob(victim);
    bytes[byte] ^= 0x40;
    write_blob(victim, bytes);
    expect_strict_failure(ErrorCode::Corrupt, victim,
                          "magic byte " + std::to_string(byte));
  }
}

TEST_F(ArchiveCorruptTest, FutureVersionIsVersionMismatch) {
  const Rank victim = 0;
  auto bytes = read_blob(victim);
  bytes[4] = 99;  // header version field (u32 LE at offset 4)
  write_blob(victim, bytes);
  try {
    (void)arch_.read_traces();
    FAIL() << "expected VersionMismatch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::VersionMismatch) << e.what();
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    EXPECT_EQ(e.context().rank, victim);
    EXPECT_EQ(e.context().path, container_path(victim));
    EXPECT_EQ(e.context().byte_offset, blob_failure_offset(victim));
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
  write_blob(victim, w.data());
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
  write_blob(victim, w.data());
  try {
    (void)arch_.read_traces();
    FAIL() << "expected Truncated";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Truncated) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated trace file"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.context().byte_offset, blob_failure_offset(victim));
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
  write_blob(victim, w.data());
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
  write_blob(victim, w.data());
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
  write_blob(victim, bytes);
  expect_strict_failure(ErrorCode::Corrupt, victim,
                        "unknown event type 15 in type stream");
}

TEST_F(ArchiveCorruptTest, ZeroLengthTraceFileTruncatedStrictQuarantinedPermissive) {
  // A zero-byte blob is the degenerate mmap case (no mapping is
  // created): strict mode reports Truncated, permissive mode
  // quarantines the rank.
  const Rank victim = 1;
  write_blob(victim, {});
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
  // read_traces decodes out of mapped windows; decoding each blob out
  // of the owned-buffer fallback (the only path on platforms without
  // mmap) must give the same traces.
  const auto mapped = arch_.read_traces();
  ASSERT_EQ(mapped.num_ranks(), data_.traces.num_ranks());
  for (Rank r = 0; r < mapped.num_ranks(); ++r) {
    const auto at = test::extent_of(container_path(r), r);
    const MappedFile copy =
        MappedFile::open(container_path(r), at.offset,
                         static_cast<std::size_t>(at.length), false);
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
  auto bytes = read_blob(victim);
  bytes.resize(bytes.size() - bytes.size() / 4);
  write_blob(victim, bytes);

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
  // The container is the trace file now: losing it is an Io error
  // naming the container and the first rank it holds.
  const Rank victim = 1;
  fs::remove(container_path(victim));
  try {
    (void)arch_.read_traces();
    FAIL() << "expected Io error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().rank, 0) << e.what();
    EXPECT_EQ(e.context().path, container_path(victim)) << e.what();
  }
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
  // Three victims, three damage classes: truncation, bad magic, and a
  // blob missing from its container's index. Permissive mode must
  // quarantine exactly those ranks with the matching codes (sorted by
  // rank) and hand back decodable survivors.
  auto t1 = read_blob(1);
  t1.resize(t1.size() / 2);
  write_blob(1, t1);
  auto t2 = read_blob(2);
  t2[0] ^= 0xFF;
  write_blob(2, t2);
  test::replace_blob(container_path(3), 3, {}, /*drop=*/true);

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
  EXPECT_EQ(report.quarantined[2].code, ErrorCode::Corrupt);
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
  auto bytes = read_blob(2);
  bytes.resize(bytes.size() / 3);
  write_blob(2, bytes);

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

/// A container whose first `region` bytes are the blob region, closed
/// by a hand-written index and a valid trailer pointing at it.
std::vector<std::uint8_t> with_index(
    const std::vector<std::uint8_t>& region,
    const std::vector<std::uint64_t>& index_varints) {
  BufWriter w;
  w.put_bytes(region.data(), region.size());
  for (const std::uint64_t v : index_varints) w.put_varint(v);
  w.put_u64(region.size());
  w.put_u32(0x4353434DU);  // "MCSC"
  w.put_u32(tracing::kContainerVersion);
  return w.data();
}

TEST_F(ArchiveCorruptTest, ContainerIndexErrorsHaveExactCodes) {
  // Damage to metahost 1's container itself (ranks 2 and 3): every
  // trailer and index check, by exact code. Strict mode names the
  // container, its first rank and a container-absolute offset inside
  // the damaged part; permissive mode quarantines both of its ranks
  // with that code and nothing else.
  const std::string path = container_path(2);
  const auto intact = read_file_bytes(path);
  const auto at2 = test::extent_of(path, 2);
  const auto at3 = test::extent_of(path, 3);
  const std::vector<std::uint8_t> region(
      intact.begin(),
      intact.begin() + static_cast<std::ptrdiff_t>(at3.offset + at3.length));
  const std::uint64_t n2 = at2.length, n3 = at3.length;

  auto with_u32_at_end = [&](std::size_t from_end, std::uint32_t v) {
    auto b = intact;
    for (int i = 0; i < 4; ++i)
      b[b.size() - from_end + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    return b;
  };
  auto index_offset_past_trailer = intact;
  index_offset_past_trailer[intact.size() - 16] =
      static_cast<std::uint8_t>(intact.size());
  struct Case {
    const char* label;
    std::vector<std::uint8_t> bytes;
    ErrorCode code;
    std::int64_t offset;  ///< -1: anywhere in the index
  };
  const auto trailer = static_cast<std::int64_t>(intact.size() - 16);
  const std::vector<Case> cases = {
      {"shorter than a trailer",
       std::vector<std::uint8_t>(intact.end() - 10, intact.end()),
       ErrorCode::Truncated, 0},
      {"cut short (no trailer left)",
       std::vector<std::uint8_t>(intact.begin(), intact.begin() + 12),
       ErrorCode::Truncated, 0},
      {"bad trailer magic", with_u32_at_end(8, 0xDEADBEEFU),
       ErrorCode::Corrupt, trailer + 8},
      {"future container version", with_u32_at_end(4, 99),
       ErrorCode::VersionMismatch, trailer + 12},
      {"index offset past the trailer", index_offset_past_trailer,
       ErrorCode::Truncated, trailer},
      {"index count over the rank cap",
       with_index(region, {tracing::kMaxRanksPerArchive + 1, 2, n2, 3, n3}),
       ErrorCode::LimitExceeded, -1},
      {"index count beyond the index bytes",
       with_index(region, {100, 2, n2, 3, n3}), ErrorCode::Truncated, -1},
      {"index entry cut short", with_index(region, {2, 2, n2, 3}),
       ErrorCode::Truncated, -1},
      {"descending ranks", with_index(region, {2, 3, n3, 2, n2}),
       ErrorCode::Corrupt, -1},
      {"rank the archive does not hold",
       with_index(region, {2, 2, n2, 1, n3}), ErrorCode::Corrupt, -1},
      {"lengths overrun the blob region",
       with_index(region, {2, 2, n2, 3, n3 + 1}), ErrorCode::Corrupt, -1},
      {"lengths fall short of the blob region",
       with_index(region, {2, 2, n2, 3, n3 - 1}), ErrorCode::Corrupt, -1},
      {"trailing index bytes", with_index(region, {2, 2, n2, 3, n3, 0}),
       ErrorCode::Corrupt, -1},
  };
  for (const Case& c : cases) {
    write_file_bytes(path, c.bytes);
    try {
      (void)arch_.read_traces();
      ADD_FAILURE() << c.label << ": strict read succeeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), c.code) << c.label << ": " << e.what();
      EXPECT_EQ(e.context().path, path) << c.label;
      EXPECT_EQ(e.context().rank, 2) << c.label;
      if (c.offset >= 0) {
        EXPECT_EQ(e.context().byte_offset, c.offset) << c.label;
      } else {
        EXPECT_GE(e.context().byte_offset,
                  static_cast<std::int64_t>(region.size()))
            << c.label;
        EXPECT_LE(e.context().byte_offset,
                  static_cast<std::int64_t>(c.bytes.size() - 16))
            << c.label;
      }
    }
    ReadOptions permissive;
    permissive.permissive = true;
    ReadReport report;
    const auto loaded = arch_.read_traces(permissive, &report);
    ASSERT_EQ(report.quarantined_ranks(), (std::vector<Rank>{2, 3}))
        << c.label;
    for (const auto& q : report.quarantined) {
      EXPECT_EQ(q.code, c.code) << c.label;
      EXPECT_EQ(q.path, path) << c.label;
    }
    EXPECT_FALSE(loaded.ranks[0].events.empty()) << c.label;
    EXPECT_FALSE(loaded.ranks[1].events.empty()) << c.label;
  }
  // The untouched bytes still read back whole.
  write_file_bytes(path, intact);
  EXPECT_EQ(arch_.read_traces().ranks[3], data_.traces.ranks[3]);
}

TEST_F(ArchiveCorruptTest, PermissiveQuarantineScopeIsBlobOrContainer) {
  // A damaged blob costs its own rank only, even with a neighbour in the
  // same container; a lost container costs every rank it holds, in
  // both permissive reads.
  auto bytes = read_blob(3);
  bytes[0] ^= 0xFF;
  write_blob(3, bytes);
  fs::remove(container_path(0));

  ReadOptions opts;
  opts.permissive = true;
  ReadReport mat;
  const auto loaded = arch_.read_traces(opts, &mat);
  EXPECT_EQ(mat.quarantined_ranks(), (std::vector<Rank>{0, 1, 3}));
  EXPECT_EQ(mat.quarantined[0].code, ErrorCode::Io);
  EXPECT_EQ(mat.quarantined[1].code, ErrorCode::Io);
  EXPECT_EQ(mat.quarantined[2].code, ErrorCode::Corrupt);
  EXPECT_FALSE(loaded.ranks[2].events.empty());

  ReadReport streamed;
  const auto src = arch_.stream_source(opts, &streamed);
  EXPECT_EQ(src.quarantined, (std::vector<Rank>{0, 1, 3}));
  ASSERT_EQ(streamed.quarantined.size(), mat.quarantined.size());
  for (std::size_t i = 0; i < mat.quarantined.size(); ++i)
    EXPECT_EQ(streamed.quarantined[i].code, mat.quarantined[i].code);
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

// --- permissive reads and clock synchronization ----------------------------

/// VIOLA Experiment 1's MetaTrace measured under `scheme`, archived under
/// `dir`, and read back permissively after rank `victim`'s blob lost its
/// second half. `clean` is the collection as measured.
struct DamagedRead {
  tracing::TraceCollection clean;
  tracing::TraceCollection read;
  ReadReport report;
};

DamagedRead read_with_truncated_rank(const std::string& dir,
                                     const simnet::Topology& topo,
                                     tracing::SyncScheme scheme,
                                     Rank victim) {
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = scheme;
  DamagedRead out;
  out.clean =
      workloads::run_experiment(topo, workloads::build_metatrace(), cfg)
          .traces;
  auto arch = ExperimentArchive::create(
      topo, FileSystemLayout::shared(dir, topo.num_metahosts()), "viola");
  arch.write_traces(topo, out.clean);
  const std::string container =
      dir + "/viola.msc/" + tracing::container_filename();
  auto blob = test::read_blob(container, victim);
  blob.resize(blob.size() / 2);
  test::replace_blob(container, victim, blob);
  ReadOptions opts;
  opts.permissive = true;
  out.read = arch.read_traces(opts, &out.report);
  return out;
}

TEST_F(ArchiveCorruptTest, PermissiveReadKeepsSurvivorsClockCorrections) {
  const auto topo = simnet::make_viola_experiment1();
  auto d = read_with_truncated_rank(base_ + "/flat", topo,
                                    tracing::SyncScheme::FlatTwo, 1);
  ASSERT_EQ(d.report.quarantined_ranks(), std::vector<Rank>{1});
  const auto want = clocksync::synchronize(d.clean);
  const auto got = clocksync::synchronize(d.read);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[1], clocksync::LinearCorrection::identity());
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (r == 1) continue;
    // Bit for bit: the same records, through the same arithmetic.
    EXPECT_EQ(std::memcmp(&got[r], &want[r], sizeof(got[r])), 0)
        << "rank " << r;
  }
}

TEST_F(ArchiveCorruptTest, PermissiveReadRejectsALostLocalMaster) {
  const auto topo = simnet::make_viola_experiment1();
  // The first local master after the metamaster, and the first rank
  // whose records reference it.
  Rank master = kNoRank;
  for (const Rank m : topo.local_masters())
    if (m != 0 && (master == kNoRank || m < master)) master = m;
  ASSERT_NE(master, kNoRank);
  Rank dependent = kNoRank;
  for (Rank r = 0; r < topo.num_ranks() && dependent == kNoRank; ++r)
    if (r != master && topo.metahost_of(r) == topo.metahost_of(master))
      dependent = r;
  ASSERT_NE(dependent, kNoRank);

  auto d = read_with_truncated_rank(base_ + "/hierarchical", topo,
                                    tracing::SyncScheme::HierarchicalTwo,
                                    master);
  ASSERT_EQ(d.report.quarantined_ranks(), std::vector<Rank>{master});
  try {
    (void)clocksync::synchronize(d.read);
    FAIL() << "ranks whose local master was quarantined were synchronized";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.context().rank, dependent) << e.what();
    EXPECT_EQ(e.base_message(),
              "offset records of rank " + std::to_string(dependent) +
                  " reference rank " + std::to_string(master) +
                  ", which has no offset records");
  }
}

}  // namespace
}  // namespace metascope::archive
