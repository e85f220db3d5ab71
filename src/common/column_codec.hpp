// Per-column codecs for the columnar trace format (v3).
//
// Two column kinds:
//
//  - Integer columns (ranks, tags, region/comm ids): zigzag-delta
//    varints. Event streams are dominated by near-constant or slowly
//    counting integer sequences, so the common delta is 0 or ±1 — one
//    byte per value.
//
//  - Double columns (timestamps, byte counts): a small self-describing
//    container whose first byte selects the encoding the *encoder* found
//    smallest for this column. Every mode is bit-lossless — the decoded
//    doubles are bit-identical to what was encoded (NaN payloads, -0.0
//    and all) — which the severity-cube reproducibility contract
//    requires:
//      0  raw         little-endian f64 per value (the ceiling)
//      1  xor         byte-aligned Gorilla: XOR each value's bit pattern
//                     with the previous one, store a lead byte giving the
//                     (leading-zero-bytes, meaningful-bytes) window plus
//                     the meaningful bytes; identical consecutive values
//                     cost one byte
//      2  scaled Δ    the column proved to be an exact multiple of one
//                     scale s from a fixed probe table (the encoder
//                     verifies fl(k·s) reproduces every bit pattern
//                     before choosing this mode): store the one-byte
//                     table index of s plus zigzag varints of Δk —
//                     quantized timestamps and integral byte counts
//                     land here
//      3  scaled ΔΔ   like 2 but second-order (delta-of-delta of k);
//                     near-periodic timestamp streams collapse to one
//                     byte per value
//      4  scaled Δ+r  like 2 but lossless for *any* finite column: after
//                     the scale index comes a residual bit width W and
//                     after the Δk varints a bit-packed stream of n
//                     zigzagged residuals (W bits each, LSB-first) — the
//                     signed distance (in a total-order ULP domain over
//                     the 64-bit patterns) from fl(k·s) to the true
//                     value. Engages when the data is only near a grid —
//                     e.g. granularity-quantized timestamps nudged
//                     off-grid by a monotonicity fix-up, where the
//                     residual is 0/±1 ULP and W = 2
//      5  scaled ΔΔ+r like 4 but second-order in k
//
// Encoders write only the payload; the caller frames each column with a
// byte-length prefix so a decoder can bounds-check the block and report
// truncation/mismatch with exact offsets. The one decoder per column
// kind is a chunked cursor (below); it reads through the bounds-checked
// Decoder facade and throws taxonomy-typed Errors on bad lead bytes or
// malformed varints; it never crashes on garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/binary_io.hpp"

namespace metascope::colcodec {

/// Zigzag-delta varint encoding of an integer column (first value is a
/// delta from 0). Appends the payload to `w`.
void encode_int_column(BufWriter& w, const std::int64_t* v, std::size_t n);

/// Encodes a double column with the smallest of the mode payloads
/// described above (mode byte + payload appended to `w`; nothing at all
/// for n == 0); on a tie the earlier candidate wins (raw, XOR, then per
/// scale in table order Δ, ΔΔ, Δ+r, ΔΔ+r). The search allocates
/// nothing: each scale is costed in one pass and abandoned once a lower
/// bound on its sizes cannot beat the best so far, and no scale is
/// tried once the best is within 1 + n bytes, the least a scaled mode
/// can take. Only the winner's quotients are computed again, to write
/// them. A scale whose first 64 values need residuals wider than 20
/// bits is skipped without looking further; that prune decides some
/// columns' mode, so it is part of the format (DESIGN.md §5e).
void encode_double_column(BufWriter& w, const double* v, std::size_t n);

// --- chunked cursors ---------------------------------------------------
//
// Stateful decoders over one framed column that produce the rows in
// caller-sized chunks: a whole-file read takes every row in one call,
// the windowed trace reader (tracing/stream) only the rows of the
// current replay window. Chunk boundaries are invisible in the output,
// because every per-value transform (delta accumulation, XOR chaining,
// residual application) carries its state in the cursor.
//
// Both cursors borrow the whole file (like Decoder) and read the column
// where its frame says it lives, so every error names a file-absolute
// byte offset. `finish()` checks the frame contract after the last
// row: a codec that consumed a different number of bytes than the
// frame declared is Corrupt ("column length mismatch"), and running
// past the end of the file mid-chunk is Truncated. Errors carry no path
// or rank; the trace reader adds both.

/// Where one framed column's payload lives in its file.
struct ColumnFrame {
  std::size_t start{0};  ///< payload offset into the file
  std::size_t len{0};    ///< framed byte length
  std::size_t n{0};      ///< row count
  const char* what{""};  ///< column name, for diagnostics
};

/// Decodes an integer column written by encode_int_column.
class IntColumnCursor {
 public:
  IntColumnCursor() = default;
  /// `file/size` is the whole file the frame points into.
  IntColumnCursor(const std::uint8_t* file, std::size_t size,
                  const ColumnFrame& frame);

  /// Decodes the next `k` rows (produced() + k must be <= n).
  void next(std::int64_t* out, std::size_t k);
  /// After all n rows: Corrupt unless exactly the framed bytes were used.
  void finish();

 private:
  Decoder dec_{nullptr, 0};
  ColumnFrame frame_;
  std::size_t produced_{0};
  std::uint64_t acc_{0};
};

/// Decodes a double column written by encode_double_column. The mode
/// header (mode byte, scale index, residual width) is read and
/// validated on construction. The residual-carrying modes keep their
/// bit-packed residuals after the whole delta stream; the first next()
/// finds where that stream starts — where its own deltas end when it
/// takes every row, by skipping the remaining varints otherwise.
class DoubleColumnCursor {
 public:
  DoubleColumnCursor() = default;
  DoubleColumnCursor(const std::uint8_t* file, std::size_t size,
                     const ColumnFrame& frame);

  void next(double* out, std::size_t k);
  void finish();

 private:
  Decoder dec_{nullptr, 0};      // mode header + value/delta stream
  Decoder res_dec_{nullptr, 0};  // bit-packed residual stream (modes 4/5)
  ColumnFrame frame_;
  std::size_t produced_{0};
  std::uint8_t mode_{0};
  bool dod_{false};
  bool split_{false};  // residual bits follow the deltas (width > 0)
  int width_{0};
  double scale_{1.0};
  std::uint64_t prev_bits_{0};  // XOR chain state
  std::uint64_t k_{0};          // wrapping quotient accumulator
  std::uint64_t delta_{0};      // wrapping delta accumulator (ΔΔ modes)
  std::uint64_t res_buf_{0};    // residual bit buffer
  int res_avail_{0};
};

}  // namespace metascope::colcodec
