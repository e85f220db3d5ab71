#include "common/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace metascope {
namespace {

TEST(BinaryIo, FixedWidthRoundTrip) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_f64(-1234.5678);
  Decoder r(w.data());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.get_f64(), -1234.5678);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIo, VarintBoundaries) {
  BufWriter w;
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ULL << 32) - 1,
                                  1ULL << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.put_varint(v);
  Decoder r(w.data());
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIo, VarintIsCompactForSmallValues) {
  BufWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.clear();
  w.put_varint(300);
  EXPECT_EQ(w.size(), 2u);
}

TEST(BinaryIo, SignedVarintRoundTrip) {
  BufWriter w;
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 63,
                                 -65,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) w.put_svarint(v);
  Decoder r(w.data());
  for (auto v : values) EXPECT_EQ(r.get_svarint(), v);
}

TEST(BinaryIo, StringRoundTrip) {
  BufWriter w;
  w.put_string("");
  w.put_string("hello world");
  w.put_string(std::string("\x00\x01\xFF", 3));
  Decoder r(w.data());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_string(), std::string("\x00\x01\xFF", 3));
}

TEST(BinaryIo, ReadPastEndThrows) {
  BufWriter w;
  w.put_u8(1);
  Decoder r(w.data());
  r.get_u8();
  EXPECT_THROW(r.get_u8(), Error);
  EXPECT_THROW(r.get_u32(), Error);
  EXPECT_THROW(r.get_varint(), Error);
  EXPECT_THROW(r.get_string(), Error);
}

TEST(BinaryIo, TruncatedStringThrows) {
  BufWriter w;
  w.put_varint(100);  // length prefix without the payload
  Decoder r(w.data());
  EXPECT_THROW(r.get_string(), Error);
}

TEST(BinaryIo, MalformedVarintThrows) {
  // 11 continuation bytes exceed the 64-bit budget.
  std::vector<std::uint8_t> bad(11, 0x80);
  Decoder r(bad.data(), bad.size());
  EXPECT_THROW(r.get_varint(), Error);
}

TEST(BinaryIo, SpecialFloats) {
  BufWriter w;
  w.put_f64(std::numeric_limits<double>::infinity());
  w.put_f64(-0.0);
  w.put_f64(std::numeric_limits<double>::denorm_min());
  Decoder r(w.data());
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::infinity());
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::denorm_min());
}

TEST(BinaryIo, FuzzRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    BufWriter w;
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t v = rng.next_u64() >> (rng.uniform_index(64));
      vals.push_back(v);
      w.put_varint(v);
    }
    Decoder r(w.data());
    for (auto v : vals) ASSERT_EQ(r.get_varint(), v);
    ASSERT_TRUE(r.at_end());
  }
}

TEST(BinaryIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_bin_test.bin").string();
  std::vector<std::uint8_t> bytes{1, 2, 3, 255, 0, 128};
  write_file_bytes(path, bytes);
  EXPECT_EQ(read_file_bytes(path), bytes);
  std::filesystem::remove(path);
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(read_file_bytes("/nonexistent/x.bin"), Error);
}

TEST(Decoder, SkipVarintsLandsWhereGetVarintDoes) {
  BufWriter w;
  const std::uint64_t values[] = {0, 127, 128, 1ULL << 40,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.put_varint(v);
  w.put_u8(0x5A);
  Decoder skipped(w.data());
  skipped.skip_varints(std::size(values));
  Decoder read(w.data());
  for (std::size_t i = 0; i < std::size(values); ++i) (void)read.get_varint();
  EXPECT_EQ(skipped.pos(), read.pos());
  EXPECT_EQ(skipped.get_u8(), 0x5A);
}

TEST(Decoder, SkipVarintsRaisesTheErrorsOfGetVarint) {
  // Cut mid-varint, an eleven-byte varint, and ten continuation bytes
  // with nothing after them: each raises what get_varint raises, at the
  // same offset.
  std::vector<std::uint8_t> cut = {0x01, 0x80, 0x80};
  std::vector<std::uint8_t> overlong(11, 0x80);
  overlong.insert(overlong.begin(), 0x05);
  std::vector<std::uint8_t> open_ended(10, 0x80);
  for (const auto* bytes : {&cut, &overlong, &open_ended}) {
    Decoder skipped(*bytes);
    Decoder read(*bytes);
    ErrorCode want = ErrorCode::None, got = ErrorCode::None;
    std::int64_t want_at = -1, got_at = -1;
    try {
      for (int i = 0; i < 3; ++i) (void)read.get_varint();
    } catch (const Error& e) {
      want = e.code();
      want_at = e.context().byte_offset;
    }
    try {
      skipped.skip_varints(3);
    } catch (const Error& e) {
      got = e.code();
      got_at = e.context().byte_offset;
    }
    EXPECT_NE(want, ErrorCode::None);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_at, want_at);
  }
}

TEST(Decoder, GetRawBorrowsWithoutCopying) {
  BufWriter w;
  w.put_u8(7);
  w.put_bytes("abcdef", 6);
  Decoder d(w.data());
  EXPECT_EQ(d.get_u8(), 7);
  const std::uint8_t* p = d.get_raw(6, "payload");
  // The pointer aims into the decoder's own buffer — zero-copy.
  EXPECT_EQ(p, w.data().data() + 1);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p), 6), "abcdef");
  EXPECT_TRUE(d.at_end());
}

TEST(Decoder, GetRawPastEndIsTruncated) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  Decoder d(bytes);
  try {
    (void)d.get_raw(4, "payload");
    FAIL() << "expected Truncated";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Truncated) << e.what();
  }
  // Zero bytes from an empty tail is fine.
  Decoder d2(bytes);
  (void)d2.get_raw(3, "payload");
  (void)d2.get_raw(0, "nothing");
  EXPECT_TRUE(d2.at_end());
}

TEST(Decoder, ExpectVersionInAcceptsRangeRejectsOutside) {
  const auto encode_version = [](std::uint32_t v) {
    BufWriter w;
    w.put_u32(v);
    return w.data();
  };
  for (const std::uint32_t v : {1u, 2u, 3u}) {
    const auto bytes = encode_version(v);
    Decoder d(bytes);
    EXPECT_EQ(d.expect_version_in(1, 3, "test file"), v);
  }
  for (const std::uint32_t v : {0u, 4u, 99u}) {
    const auto bytes = encode_version(v);
    Decoder d(bytes);
    try {
      (void)d.expect_version_in(1, 3, "test file");
      FAIL() << "expected VersionMismatch for version " << v;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::VersionMismatch) << e.what();
    }
  }
}

TEST(MappedFile, MappedAndFallbackViewsAreIdentical) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_mmap_test.bin").string();
  std::vector<std::uint8_t> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
  write_file_bytes(path, bytes);

  const MappedFile mapped = MappedFile::open(path, /*allow_mmap=*/true);
  const MappedFile copied = MappedFile::open(path, /*allow_mmap=*/false);
  EXPECT_FALSE(copied.mapped());
  ASSERT_EQ(mapped.size(), bytes.size());
  ASSERT_EQ(copied.size(), bytes.size());
  EXPECT_EQ(std::vector<std::uint8_t>(mapped.data(),
                                      mapped.data() + mapped.size()),
            bytes);
  EXPECT_EQ(std::vector<std::uint8_t>(copied.data(),
                                      copied.data() + copied.size()),
            bytes);
  std::filesystem::remove(path);
}

TEST(MappedFile, ZeroLengthFileYieldsEmptyView) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_mmap_empty.bin")
          .string();
  write_file_bytes(path, {});
  for (const bool allow_mmap : {true, false}) {
    const MappedFile f = MappedFile::open(path, allow_mmap);
    EXPECT_EQ(f.size(), 0u);
    EXPECT_FALSE(f.mapped());  // mmap rejects length 0; no mapping made
  }
  std::filesystem::remove(path);
}

TEST(MappedFile, MissingFileThrowsIoWithPath) {
  try {
    (void)MappedFile::open("/nonexistent/msc.bin");
    FAIL() << "expected Io error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/nonexistent/msc.bin");
  }
}

TEST(MappedFile, MoveTransfersTheView) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_mmap_move.bin").string();
  write_file_bytes(path, {9, 8, 7});
  MappedFile a = MappedFile::open(path);
  MappedFile b = std::move(a);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[0], 9);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset state
  std::filesystem::remove(path);
}

// --- writes that hit a full disk -----------------------------------------
//
// /dev/full fails every write with ENOSPC. A small write is buffered and
// only fails at the flush on close, which is the error an unchecked close
// would lose.

TEST(FileWriter, SmallWriteToFullDeviceFailsAtClose) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FileWriter out("/dev/full");
  const std::vector<std::uint8_t> bytes(100, 0x5A);
  out.write(bytes);
  try {
    out.close();
    FAIL() << "close on /dev/full succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/dev/full");
  }
}

TEST(FileWriter, LargeWriteToFullDeviceFailsAtWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FileWriter out("/dev/full");
  const std::vector<std::uint8_t> bytes(std::size_t{1} << 20, 0x5A);
  try {
    out.write(bytes);
    FAIL() << "1 MiB write to /dev/full succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/dev/full");
  }
}

TEST(FileWriter, WriteFileBytesToFullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    write_file_bytes("/dev/full", std::vector<std::uint8_t>(100, 1));
    FAIL() << "write_file_bytes to /dev/full succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/dev/full");
  }
}

TEST(FileWriter, AppendsAndCountsBytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_file_writer.bin").string();
  FileWriter out(path);
  out.write(std::vector<std::uint8_t>{1, 2, 3});
  out.write(std::vector<std::uint8_t>{});
  out.write(std::vector<std::uint8_t>{4});
  EXPECT_EQ(out.size(), 4u);
  out.close();
  EXPECT_EQ(read_file_bytes(path), (std::vector<std::uint8_t>{1, 2, 3, 4}));
  std::filesystem::remove(path);
}

// --- byte ranges ------------------------------------------------------------

TEST(MappedFile, RangeViewsMatchTheFileAtEveryOffset) {
  // Ranges that start on, before and after page boundaries, mapped and
  // read into a buffer, must show exactly the bytes of the file.
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_mmap_range.bin").string();
  std::vector<std::uint8_t> bytes(3 * 4096 + 123);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  write_file_bytes(path, bytes);
  for (const std::uint64_t offset : {0u, 1u, 4095u, 4096u, 4097u, 9000u}) {
    for (const std::size_t length : {0u, 1u, 100u, 5000u}) {
      if (offset + length > bytes.size()) continue;
      const std::vector<std::uint8_t> want(
          bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          bytes.begin() + static_cast<std::ptrdiff_t>(offset + length));
      for (const bool allow_mmap : {true, false}) {
        const MappedFile f = MappedFile::open(path, offset, length, allow_mmap);
        ASSERT_EQ(f.size(), length);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), f.data()))
            << "offset " << offset << " length " << length;
      }
      EXPECT_EQ(read_file_range(path, offset, length), want);
    }
  }
  EXPECT_EQ(file_size(path), bytes.size());
  std::filesystem::remove(path);
}

TEST(MappedFile, RangePastTheEndIsTruncated) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_mmap_short.bin").string();
  write_file_bytes(path, std::vector<std::uint8_t>(10, 1));
  for (const bool allow_mmap : {true, false}) {
    try {
      (void)MappedFile::open(path, 4, 7, allow_mmap);
      FAIL() << "range past the end opened";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Truncated) << e.what();
      EXPECT_EQ(e.context().path, path);
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace metascope
