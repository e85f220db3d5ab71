// The v3 trace-file constants and checks shared by the encoder and the
// v1/v2 row decoder (epilog_io.cpp) and the v3 decoder (stream.cpp).
// Private to the tracing module; DESIGN.md §5e has the byte layout.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing::v3 {

inline constexpr std::uint32_t kTraceMagic = 0x5453434DU;  // "MCST"
inline constexpr std::size_t kNumEventTypes = 5;

inline EventType type_at(const std::uint8_t* nibbles, std::size_t i) {
  const std::uint8_t b = nibbles[i / 2];
  return static_cast<EventType>(i % 2 == 0 ? b & 0xF : b >> 4);
}

/// Corrupt, naming the column, unless every value fits the 32-bit field
/// it decodes into.
void check_int32(const std::int64_t* v, std::size_t n, const char* what,
                 const ErrorContext& ctx);

}  // namespace metascope::tracing::v3
