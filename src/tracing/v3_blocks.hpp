// The v3 trace-file building blocks shared by the batch reader
// (epilog_io.cpp) and the windowed reader (stream.cpp): one copy of the
// header, sync-column, type-stream and column-frame checks, so both
// readers accept and reject exactly the same files. Private to the
// tracing module; DESIGN.md §5e has the byte layout.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing::v3 {

inline constexpr std::uint32_t kTraceMagic = 0x5453434DU;  // "MCST"
inline constexpr std::size_t kNumEventTypes = 5;

/// The header fields after the rank id.
struct Header {
  std::uint64_t nsync{0};
  std::uint64_t nev{0};
  /// Events per EventType; Corrupt unless they sum to nev.
  std::array<std::uint64_t, kNumEventTypes> counts{};
};

Header get_header(Decoder& d);

/// The five sync-record columns.
std::vector<OffsetRecord> get_sync(Decoder& d, std::uint64_t nsync);

/// Validates the nibble-packed type stream against the header counts and
/// returns the packed bytes (borrowed from the decoder's buffer).
const std::uint8_t* get_type_stream(Decoder& d, const Header& h);

inline EventType type_at(const std::uint8_t* nibbles, std::size_t i) {
  const std::uint8_t b = nibbles[i / 2];
  return static_cast<EventType>(i % 2 == 0 ? b & 0xF : b >> 4);
}

/// Reads a column frame's byte-length prefix and returns the position
/// at which the column must end. Truncated if the declared length
/// overruns the file.
std::size_t begin_column(Decoder& d, const char* what);

/// Corrupt, naming the column, unless every value fits the 32-bit field
/// it decodes into.
void check_int32(const std::int64_t* v, std::size_t n, const char* what,
                 const ErrorContext& ctx);

}  // namespace metascope::tracing::v3
