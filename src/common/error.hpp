// Error handling: a single exception type plus check macros used at module
// boundaries. Internal invariants use MSC_ASSERT which is active in all
// build types (simulation correctness matters more than the cycle cost).
//
// Errors raised at the *ingestion boundary* (trace/defs/config decoding,
// archive I/O) additionally carry a structured taxonomy so callers can
// react per failure class instead of string-matching what():
//
//   - ErrorCode::Truncated        file/buffer ends before the payload its
//                                 header promises (cut short in transit);
//   - ErrorCode::Corrupt          bytes present but not decodable (bad
//                                 magic, unknown event type, bad JSON);
//   - ErrorCode::VersionMismatch  well-formed header from an unsupported
//                                 format version;
//   - ErrorCode::LimitExceeded    a count/length field exceeds the
//                                 decoder's sanity caps (bit-flipped or
//                                 adversarial size fields);
//   - ErrorCode::Io               the OS failed us (open/read/write).
//
// ErrorContext threads the *where* — file path, rank, byte offset —
// through every decode error, so a corrupt archive names the exact file
// and position instead of "bad trace".
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace metascope {

/// Failure class for ingestion-boundary errors. None marks errors
/// outside the taxonomy (API misuse, invariant violations).
enum class ErrorCode {
  None,
  Truncated,
  Corrupt,
  VersionMismatch,
  LimitExceeded,
  Io,
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::None: return "none";
    case ErrorCode::Truncated: return "truncated";
    case ErrorCode::Corrupt: return "corrupt";
    case ErrorCode::VersionMismatch: return "version-mismatch";
    case ErrorCode::LimitExceeded: return "limit-exceeded";
    case ErrorCode::Io: return "io";
  }
  return "?";
}

/// Where an ingestion error happened. Fields are optional; unknown ones
/// stay at their defaults and are omitted from the rendered message.
struct ErrorContext {
  /// Source file (trace/defs/config path), empty if not file-backed.
  std::string path;
  /// Rank whose data was being decoded; -1 if not rank-scoped.
  int rank{-1};
  /// Byte offset into the source where decoding failed; -1 if unknown.
  std::int64_t byte_offset{-1};
};

namespace detail {
inline std::string render_error(const std::string& base, ErrorCode code,
                                const ErrorContext& ctx) {
  if (code == ErrorCode::None && ctx.path.empty() && ctx.rank < 0 &&
      ctx.byte_offset < 0)
    return base;
  std::ostringstream os;
  os << base << " [";
  const char* sep = "";
  if (code != ErrorCode::None) {
    os << "code=" << to_string(code);
    sep = ", ";
  }
  if (!ctx.path.empty()) {
    os << sep << "path=" << ctx.path;
    sep = ", ";
  }
  if (ctx.rank >= 0) {
    os << sep << "rank=" << ctx.rank;
    sep = ", ";
  }
  if (ctx.byte_offset >= 0) os << sep << "offset=" << ctx.byte_offset;
  os << "]";
  return os.str();
}
}  // namespace detail

/// Exception thrown on any MetaScope API misuse or invariant violation.
/// Decode-path throws carry an ErrorCode + ErrorContext (see above);
/// everything else defaults to ErrorCode::None with empty context.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), base_(what) {}
  Error(ErrorCode code, const std::string& what, ErrorContext ctx = {})
      : std::runtime_error(detail::render_error(what, code, ctx)),
        base_(what),
        code_(code),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const ErrorContext& context() const { return ctx_; }
  /// The message without the rendered [code/path/rank/offset] suffix.
  [[nodiscard]] const std::string& base_message() const { return base_; }

  /// A copy of this error with the given context merged in: fields
  /// already known keep their values, unknown ones are filled from
  /// `extra`. Used by callers (archive readers) that know the file and
  /// rank a lower-level decoder did not.
  [[nodiscard]] Error with_context(const ErrorContext& extra) const {
    ErrorContext merged = ctx_;
    if (merged.path.empty()) merged.path = extra.path;
    if (merged.rank < 0) merged.rank = extra.rank;
    if (merged.byte_offset < 0) merged.byte_offset = extra.byte_offset;
    return Error(code_, base_, std::move(merged));
  }

  /// A copy whose byte offset, if known, is moved `base` bytes on: for
  /// bytes decoded out of a region that starts `base` bytes into its
  /// file (one rank's blob inside a trace container).
  [[nodiscard]] Error offset_by(std::uint64_t base) const {
    ErrorContext moved = ctx_;
    if (moved.byte_offset >= 0)
      moved.byte_offset += static_cast<std::int64_t>(base);
    return Error(code_, base_, std::move(moved));
  }

 private:
  std::string base_;
  ErrorCode code_{ErrorCode::None};
  ErrorContext ctx_;
};

namespace detail {
[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace metascope

/// Precondition check on public API arguments; always active.
#define MSC_CHECK(cond, msg)                                               \
  do {                                                                     \
    if (!(cond))                                                           \
      ::metascope::detail::fail("check", #cond, __FILE__, __LINE__, msg);  \
  } while (0)

/// Internal invariant; always active (simulations must not silently drift).
#define MSC_ASSERT(cond, msg)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::metascope::detail::fail("assert", #cond, __FILE__, __LINE__, msg); \
  } while (0)
