#include "common/binary_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace metascope {

void BufWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void BufWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void BufWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void BufWriter::put_string(const std::string& s) {
  put_varint(s.size());
  put_bytes(s.data(), s.size());
}

void BufWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void BufWriter::insert_varint(std::size_t pos, std::uint64_t v) {
  std::uint8_t bytes[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<std::uint8_t>(v);
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(pos), bytes,
              bytes + n);
}

// --- Decoder -------------------------------------------------------------

void Decoder::fail(ErrorCode code, const std::string& msg) const {
  throw Error(code, msg,
              ErrorContext{std::string(path_), rank_,
                           static_cast<std::int64_t>(pos_)});
}

void Decoder::need(std::size_t n, const char* what) const {
  if (n > size_ - pos_) {
    fail(ErrorCode::Truncated,
         std::string("truncated: need ") + std::to_string(n) +
             " more byte(s) for " + what + " but only " +
             std::to_string(size_ - pos_) + " remain");
  }
}

std::uint8_t Decoder::get_u8() {
  need(1, "u8");
  return data_[pos_++];
}

std::uint32_t Decoder::get_u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1, "varint");
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64) fail(ErrorCode::Corrupt, "varint longer than 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  return v;
}

std::int64_t Decoder::get_svarint() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

void Decoder::skip_varints(std::size_t n) {
  // A varint ends at its first byte without the continuation bit; the
  // tenth byte is the last one a 64-bit value may use. Anything else
  // (the buffer ends first, or an eleventh byte follows) is re-read by
  // get_varint from the varint's start, which throws the exact error.
  std::size_t p = pos_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = p;
    while (p < size_ && (data_[p] & 0x80) != 0 && p - start < 9) ++p;
    if (p == size_ || (data_[p] & 0x80) != 0) {
      pos_ = start;
      (void)get_varint();
      p = pos_;
      continue;
    }
    ++p;
  }
  pos_ = p;
}

double Decoder::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Decoder::get_string(const char* what) {
  const std::uint64_t n = get_varint();
  if (n > kMaxStringBytes)
    fail(ErrorCode::LimitExceeded,
         std::string(what) + " length " + std::to_string(n) +
             " exceeds the " + std::to_string(kMaxStringBytes) +
             "-byte string cap");
  need(static_cast<std::size_t>(n), what);
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::uint64_t Decoder::get_count(const char* what,
                                 std::size_t min_bytes_per_item) {
  const std::uint64_t n = get_varint();
  if (n > kMaxCount)
    fail(ErrorCode::LimitExceeded,
         std::string("count of ") + what + " (" + std::to_string(n) +
             ") exceeds the sanity cap of " + std::to_string(kMaxCount));
  // A zero per-item floor means the count has no payload of its own
  // (e.g. the defs rank count) — only the absolute cap applies then.
  if (min_bytes_per_item > 0) {
    // n <= 2^27 and min is a small constant, so the product cannot
    // overflow.
    const std::uint64_t floor_bytes = n * min_bytes_per_item;
    if (floor_bytes > remaining())
      fail(ErrorCode::Truncated,
           std::string("truncated: header promises ") + std::to_string(n) +
               " " + what + " (>= " + std::to_string(floor_bytes) +
               " bytes) but only " + std::to_string(remaining()) +
               " payload bytes are present");
  }
  return n;
}

void Decoder::expect_magic(std::uint32_t expected, const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got != expected) {
    pos_ = at;
    fail(ErrorCode::Corrupt,
         std::string("bad ") + what + " magic (got 0x" + [&] {
           char buf[16];
           std::snprintf(buf, sizeof buf, "%08X", got);
           return std::string(buf);
         }() + ")");
  }
}

void Decoder::expect_version(std::uint32_t expected, const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got != expected) {
    pos_ = at;
    fail(ErrorCode::VersionMismatch,
         std::string("unsupported ") + what + " format version " +
             std::to_string(got) + " (this build reads version " +
             std::to_string(expected) + ")");
  }
}

std::uint32_t Decoder::expect_version_in(std::uint32_t lo, std::uint32_t hi,
                                         const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got < lo || got > hi) {
    pos_ = at;
    fail(ErrorCode::VersionMismatch,
         std::string("unsupported ") + what + " format version " +
             std::to_string(got) + " (this build reads versions " +
             std::to_string(lo) + ".." + std::to_string(hi) + ")");
  }
  return got;
}

const std::uint8_t* Decoder::get_raw(std::size_t n, const char* what) {
  need(n, what);
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void Decoder::require_end(const char* what) {
  if (pos_ != size_)
    fail(ErrorCode::Corrupt, std::string("trailing bytes in ") + what + " (" +
                                 std::to_string(size_ - pos_) +
                                 " undecoded)");
}

// --- file helpers -------------------------------------------------------

namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path,
                           int err) {
  throw Error(ErrorCode::Io,
              what + (err != 0 ? std::string(" (") + std::strerror(err) + ")"
                               : std::string()),
              ErrorContext{path, -1, -1});
}

/// Opens `path` for reading at its end, so tellg() is its size.
std::ifstream open_for_read(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw_io("cannot open for read", path, errno);
  return in;
}

std::vector<std::uint8_t> read_range(std::ifstream& in,
                                     const std::string& path,
                                     std::uint64_t offset,
                                     std::size_t length) {
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (offset > size || length > size - offset)
    throw Error(ErrorCode::Truncated,
                "file holds " + std::to_string(size) +
                    " bytes, fewer than the range [" +
                    std::to_string(offset) + ", " +
                    std::to_string(offset + length) + ") needs",
                ErrorContext{path, -1, static_cast<std::int64_t>(size)});
  std::vector<std::uint8_t> bytes(length);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(length));
  if (!in) throw_io("read failed", path, 0);
  return bytes;
}

}  // namespace

FileWriter::FileWriter(std::string path) : path_(std::move(path)) {
  errno = 0;
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) fail("cannot open for write");
}

FileWriter::~FileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileWriter::fail(const char* what) const { throw_io(what, path_, errno); }

void FileWriter::write(const void* data, std::size_t n) {
  MSC_CHECK(file_ != nullptr, "write after close: " + path_);
  errno = 0;
  if (n != 0 && std::fwrite(data, 1, n, file_) != n) fail("write failed");
  size_ += n;
}

void FileWriter::close() {
  MSC_CHECK(file_ != nullptr, "file closed twice: " + path_);
  errno = 0;
  const bool flushed = std::fflush(file_) == 0;
  const int flush_err = errno;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flushed) throw_io("write failed at flush", path_, flush_err);
  if (!closed) fail("close failed");
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  FileWriter out(path);
  out.write(bytes);
  out.close();
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in = open_for_read(path);
  return read_range(in, path, 0, static_cast<std::size_t>(in.tellg()));
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(open_for_read(path).tellg());
}

std::vector<std::uint8_t> read_file_range(const std::string& path,
                                          std::uint64_t offset,
                                          std::size_t length) {
  std::ifstream in = open_for_read(path);
  return read_range(in, path, offset, length);
}

// --- MappedFile ----------------------------------------------------------

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = other.data_;
    size_ = other.size_;
    map_ = other.map_;
    map_len_ = other.map_len_;
    fallback_ = std::move(other.fallback_);
    if (!fallback_.empty()) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.map_ = nullptr;
    other.map_len_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
#if defined(__unix__) || defined(__APPLE__)
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::open(const std::string& path, bool allow_mmap) {
  return map(path, 0, std::nullopt, allow_mmap);
}

MappedFile MappedFile::open(const std::string& path, std::uint64_t offset,
                            std::size_t length, bool allow_mmap) {
  return map(path, offset, length, allow_mmap);
}

MappedFile MappedFile::map(const std::string& path, std::uint64_t offset,
                           std::optional<std::size_t> length,
                           bool allow_mmap) {
  MappedFile f;
#if defined(__unix__) || defined(__APPLE__)
  if (allow_mmap) {
    errno = 0;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw_io("cannot open for read", path, errno);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      const int err = errno;
      ::close(fd);
      if (err != 0) throw_io("cannot stat for read", path, err);
      throw_io("cannot stat for read (not a regular file)", path, 0);
    }
    const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
    const std::size_t size =
        length ? *length : static_cast<std::size_t>(file_bytes);
    if (offset > file_bytes || size > file_bytes - offset) {
      // Let the owned-buffer path raise the range error.
      ::close(fd);
    } else if (size == 0) {
      // mmap rejects zero-length mappings; an empty view simply fails
      // decoding with Truncated later.
      ::close(fd);
      return f;
    } else {
      // mmap offsets must be page-aligned: map from the page holding
      // `offset` and point the view at the range inside it.
      static const auto page =
          static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
      const std::uint64_t start = offset - offset % page;
      const auto lead = static_cast<std::size_t>(offset - start);
      void* map = ::mmap(nullptr, lead + size, PROT_READ, MAP_PRIVATE, fd,
                         static_cast<off_t>(start));
      ::close(fd);  // the mapping keeps its own reference
      if (map != MAP_FAILED) {
#if defined(POSIX_MADV_SEQUENTIAL)
        ::posix_madvise(map, lead + size, POSIX_MADV_SEQUENTIAL);
#endif
        f.map_ = map;
        f.map_len_ = lead + size;
        f.data_ = static_cast<const std::uint8_t*>(map) + lead;
        f.size_ = size;
        return f;
      }
      // Mapping refused (e.g. a file system without mmap support): fall
      // through to the owned-buffer path.
    }
  }
#endif
  f.fallback_ = length ? read_file_range(path, offset, *length)
                       : read_file_bytes(path);
  f.data_ = f.fallback_.data();
  f.size_ = f.fallback_.size();
  return f;
}

}  // namespace metascope
