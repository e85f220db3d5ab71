// Fuzz target: the column encoders (common/column_codec). The input
// becomes one int64 column and one double column; both are encoded,
// then decoded whole and in windows of three rows, and every decoded
// value must be bit-identical to what went in. The double column's
// bytes must also equal the reference mode search
// (tests/column_codec_reference.hpp): the encoder's pruned one-pass
// search may be fast, never different.
//
// Input layout: a shape byte, then 8-byte little-endian words, one per
// row. The shape byte's low two bits say how a word becomes a double —
// 0: its bit pattern; 1: its low 32 bits (signed) times a probe scale,
// a value on the scale's grid; 2: the same grid value moved by the
// word's bits 32..39 (signed) steps in the total-order ULP domain; 3:
// a running sum of the word's low 16 bits (signed) times the scale, a
// timestamp-like series, nudged the same way. Bits 2..4 pick the
// scale. The int64 column is the words themselves. Anything else —
// wrong value, wrong bytes — traps.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "../column_codec_reference.hpp"
#include "common/binary_io.hpp"
#include "common/column_codec.hpp"

namespace {

using namespace metascope;

void require(bool ok) {
  if (!ok) __builtin_trap();
}

std::uint64_t word_at(const std::uint8_t* p) {
  std::uint64_t w = 0;
  for (int b = 0; b < 8; ++b)
    w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return w;
}

/// Moves `v` by `steps` in the total-order ULP domain (any bit pattern
/// comes out, NaNs included).
double nudge(double v, std::int64_t steps) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  std::uint64_t o = (b >> 63) != 0 ? ~b : (b | 0x8000000000000000ULL);
  o += static_cast<std::uint64_t>(steps);
  b = (o >> 63) != 0 ? (o ^ 0x8000000000000000ULL) : ~o;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

template <typename Cursor, typename T>
void require_decodes(const std::vector<std::uint8_t>& bytes,
                     const std::vector<T>& want, std::size_t window) {
  const colcodec::ColumnFrame frame{0, bytes.size(), want.size(), "fuzz"};
  Cursor cur(bytes.data(), bytes.size(), frame);
  std::vector<T> got(want.size());
  for (std::size_t at = 0; at < want.size(); at += window)
    cur.next(got.data() + at, std::min(window, want.size() - at));
  cur.finish();
  require(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) ==
          0);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::size_t n = size == 0 ? 0 : (size - 1) / 8;
  if (n == 0) return 0;
  const std::uint8_t shape = data[0];
  const auto& scales = test::refcodec::kScales;
  const double scale = scales[(shape >> 2) % std::size(scales)];
  std::vector<std::int64_t> ints(n);
  std::vector<double> doubles(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = word_at(data + 1 + 8 * i);
    ints[i] = static_cast<std::int64_t>(w);
    const double grid =
        static_cast<double>(static_cast<std::int32_t>(w)) * scale;
    const auto steps = static_cast<std::int8_t>(w >> 32);
    switch (shape & 3) {
      case 0:
        std::memcpy(&doubles[i], &w, sizeof w);
        break;
      case 1:
        doubles[i] = grid;
        break;
      case 2:
        doubles[i] = nudge(grid, steps);
        break;
      default:
        sum += static_cast<double>(static_cast<std::int16_t>(w)) * scale;
        doubles[i] = nudge(sum, steps % 4);
        break;
    }
  }

  BufWriter int_col;
  colcodec::encode_int_column(int_col, ints.data(), n);
  BufWriter got;
  colcodec::encode_double_column(got, doubles.data(), n);
  BufWriter want;
  test::refcodec::encode_double_column(want, doubles.data(), n);
  require(got.data() == want.data());

  for (const std::size_t window : {n, std::size_t{3}}) {
    require_decodes<colcodec::IntColumnCursor>(int_col.data(), ints, window);
    require_decodes<colcodec::DoubleColumnCursor>(got.data(), doubles, window);
  }
  return 0;
}

#include "fuzz_driver.hpp"
