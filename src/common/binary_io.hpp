// Little binary serialization layer used by the EPILOG-like trace format.
//
// Encoding: fixed-width little-endian for floats, LEB128 varints for
// integers (event streams are dominated by small ints — ranks, tags,
// region ids — so varints cut trace size roughly in half).
//
// Every decode path reads through Decoder, the hardened facade: it
// tracks remaining bytes overflow-safely, enforces sanity caps on
// counts/string lengths derived from the bytes actually present, and
// throws taxonomy-typed Errors (Truncated / Corrupt / VersionMismatch /
// LimitExceeded) carrying the source path, rank, and exact byte offset
// of the failure.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace metascope {

/// An append-only byte buffer. clear() keeps the capacity, so a writer
/// that is reused reaches a steady state with no allocation at all.
class BufWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Unsigned LEB128.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Zig-zag signed LEB128.
  void put_svarint(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }
  void put_f64(double v);
  /// Varint length prefix + raw bytes.
  void put_string(const std::string& s);
  void put_bytes(const void* data, std::size_t n);
  /// Inserts `v` as a varint at byte `pos` (<= size()), moving the
  /// bytes after it up: how a length prefix goes in front of a payload
  /// that was written first.
  void insert_varint(std::size_t pos, std::uint64_t v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }
  /// Hands the bytes over without copying; the writer is left empty.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decode facade (see header comment). Every get_* call
/// checks the remaining byte count without arithmetic wraparound; count
/// and length fields are validated against both an absolute cap and the
/// bytes still present, so a flipped high bit in a size field becomes a
/// typed Error instead of a multi-gigabyte allocation.
class Decoder {
 public:
  /// Hard ceiling on any element count a single file may declare. Far
  /// above any real archive (a trace with 2^27 events is ~1.2 GiB) but
  /// low enough that count*sizeof(element) can never overflow or OOM.
  static constexpr std::uint64_t kMaxCount = 1ULL << 27;
  /// Hard ceiling on one string (region/metahost/comm names).
  static constexpr std::uint64_t kMaxStringBytes = 1ULL << 20;

  /// `path` names the source in error contexts; the decoder borrows it,
  /// so it must outlive the decoder (like the bytes themselves).
  Decoder(const std::uint8_t* data, std::size_t size,
          std::string_view path = {})
      : data_(data), size_(size), path_(path) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf,
                   std::string_view path = {})
      : Decoder(buf.data(), buf.size(), path) {}

  /// Updates the rank attached to subsequent error contexts (decoders
  /// learn the rank partway through the header).
  void set_rank(int rank) { rank_ = rank; }

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::uint64_t get_varint();
  std::int64_t get_svarint();
  double get_f64();

  /// Steps over `n` varints without decoding them, raising exactly the
  /// Truncated/Corrupt errors that `n` get_varint calls would.
  void skip_varints(std::size_t n);

  /// Varint length prefix + raw bytes; length checked against
  /// kMaxStringBytes (LimitExceeded) and the remaining bytes
  /// (Truncated).
  std::string get_string(const char* what = "string");

  /// Element-count field: reads a varint and validates it against
  /// kMaxCount (LimitExceeded — an oversized/bit-flipped count field)
  /// and against remaining()/min_bytes_per_item (Truncated — a sane
  /// count whose payload is missing). The returned value is safe to
  /// pass to vector::reserve.
  std::uint64_t get_count(const char* what, std::size_t min_bytes_per_item);

  /// Header helpers. Magic mismatch → Corrupt; version mismatch →
  /// VersionMismatch naming both versions.
  void expect_magic(std::uint32_t expected, const char* what);
  void expect_version(std::uint32_t expected, const char* what);
  /// Accepts any version in [lo, hi] and returns it; anything else →
  /// VersionMismatch naming the supported range. Decode paths that keep
  /// older format versions readable dispatch on the returned value.
  std::uint32_t expect_version_in(std::uint32_t lo, std::uint32_t hi,
                                  const char* what);

  /// Borrowed-buffer access: bounds-checks and consumes n bytes, and
  /// returns a pointer into the underlying buffer (valid for the
  /// buffer's lifetime — with a MappedFile, until it is unmapped). The
  /// zero-copy read path decodes packed sections straight out of the
  /// mapping through this.
  const std::uint8_t* get_raw(std::size_t n, const char* what);

  /// Throws Corrupt if any undecoded bytes remain.
  void require_end(const char* what);

  /// Typed failure at the current offset (decoders use this for their
  /// own semantic checks, e.g. an unknown event-type byte).
  [[noreturn]] void fail(ErrorCode code, const std::string& msg) const;

  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// The path and rank errors name (without a byte offset).
  [[nodiscard]] ErrorContext context() const {
    return ErrorContext{std::string(path_), rank_, -1};
  }

 private:
  /// Overflow-safe bounds check: Truncated if fewer than n bytes remain.
  void need(std::size_t n, const char* what) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
  std::string_view path_;
  int rank_{-1};
};

/// A file being written: creates (or truncates) `path` and appends to
/// it. Every write is checked for errors and short counts, and close()
/// checks the final flush, so a full disk fails the write that hits it
/// instead of passing unnoticed. Failures throw Error (ErrorCode::Io,
/// path attached). A writer destroyed without close() (an exception
/// unwinding past it) closes without checking.
class FileWriter {
 public:
  explicit FileWriter(std::string path);
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  void write(const void* data, std::size_t n);
  void write(const std::vector<std::uint8_t>& bytes) {
    write(bytes.data(), bytes.size());
  }
  /// Flushes and closes; throws if either fails.
  void close();
  /// Bytes written so far.
  [[nodiscard]] std::uint64_t size() const { return size_; }

 private:
  [[noreturn]] void fail(const char* what) const;

  std::string path_;
  std::FILE* file_{nullptr};
  std::uint64_t size_{0};
};

/// Whole-file helpers; throw Error (ErrorCode::Io, path attached) on I/O
/// failure. write_file_bytes goes through FileWriter.
void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> read_file_bytes(const std::string& path);
/// Size of the file at `path`; Io if it cannot be opened.
std::uint64_t file_size(const std::string& path);
/// `length` bytes of the file at `path`, starting `offset` bytes in. Io
/// if it cannot be read; Truncated if the file ends before the range.
std::vector<std::uint8_t> read_file_range(const std::string& path,
                                          std::uint64_t offset,
                                          std::size_t length);

/// A read-only view of a whole file or of a byte range of one,
/// memory-mapped when the platform supports it (POSIX mmap) and read
/// into an owned buffer otherwise. The zero-copy archive read path
/// decodes trace blobs straight out of the mapping instead of copying
/// them through read_file_bytes first.
///
/// Zero-length views are empty without mapping (mmap rejects length 0).
/// Decoding results are byte-for-byte identical whichever path backs
/// the view — tests assert the parity. Move-only; the mapping is
/// released on destruction.
class MappedFile {
 public:
  /// Opens `path`; throws Error (ErrorCode::Io, path attached) if it
  /// cannot be opened or read. With allow_mmap = false (or on platforms
  /// without mmap) the file is read into an owned buffer instead.
  static MappedFile open(const std::string& path, bool allow_mmap = true);
  /// A view of `length` bytes of `path` starting `offset` bytes in. Only
  /// the pages the range touches are mapped, so a reader holds one
  /// rank's window of a trace container, not the container. Errors as
  /// for read_file_range.
  static MappedFile open(const std::string& path, std::uint64_t offset,
                         std::size_t length, bool allow_mmap = true);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True when backed by an actual mapping (false for the owned-buffer
  /// fallback and for empty files).
  [[nodiscard]] bool mapped() const { return map_ != nullptr; }

 private:
  /// The range [offset, offset + length), or the whole file when no
  /// length is given.
  static MappedFile map(const std::string& path, std::uint64_t offset,
                        std::optional<std::size_t> length, bool allow_mmap);

  const std::uint8_t* data_{nullptr};
  std::size_t size_{0};
  void* map_{nullptr};
  std::size_t map_len_{0};
  std::vector<std::uint8_t> fallback_;
};

}  // namespace metascope
