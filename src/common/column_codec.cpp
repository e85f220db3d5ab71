#include "common/column_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace metascope::colcodec {

namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeXor = 1;
constexpr std::uint8_t kModeScaledDelta = 2;
constexpr std::uint8_t kModeScaledDod = 3;
constexpr std::uint8_t kModeScaledDeltaRes = 4;
constexpr std::uint8_t kModeScaledDodRes = 5;

// Scales the encoder probes for the scaled-integer modes, largest first
// so the quotients (and their deltas) come out smallest. 1.0 catches
// integral byte counts; 1e-6/1e-7/1e-9 catch clock-granularity-quantized
// timestamps. The scaled modes store the *index* into this table (one
// byte instead of an f64), which makes the table part of the v3 format:
// entries may only be appended, never reordered or removed.
constexpr double kScales[] = {1.0, 1e-3, 1e-6, 1e-7, 1e-9};
constexpr std::size_t kNumScales = sizeof(kScales) / sizeof(kScales[0]);

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

/// Total-order mapping of double bit patterns onto uint64 (monotone in
/// the numeric value): negative doubles flip all bits, non-negative
/// ones flip the sign bit. Bijective, so residual arithmetic in this
/// domain reconstructs any bit pattern exactly — including -0.0 and
/// NaN payloads.
std::uint64_t to_ordered(std::uint64_t b) {
  return (b >> 63) != 0 ? ~b : (b | 0x8000000000000000ULL);
}

std::uint64_t from_ordered(std::uint64_t o) {
  return (o >> 63) != 0 ? (o ^ 0x8000000000000000ULL) : ~o;
}

std::size_t varint_len(std::uint64_t u) {
  return (static_cast<std::size_t>(std::bit_width(u | 1)) + 6) / 7;
}

std::size_t svarint_len(std::int64_t v) { return varint_len(zigzag(v)); }

/// std::llround(q) for |q| < 9e15, inline: below 2^53 the truncation
/// and the fraction q - trunc(q) are exact, so rounding half away from
/// zero is one compare either way.
std::int64_t round_half_away(double q) {
  auto k = static_cast<std::int64_t>(q);
  const double frac = q - static_cast<double>(k);
  if (frac >= 0.5) {
    ++k;
  } else if (frac <= -0.5) {
    --k;
  }
  return k;
}

/// Fits one value to a scale: its quotient k = round(v/s) and its
/// zigzagged residual, the distance ordered(v) - ordered(fl(k*s)) in
/// the total-order ULP domain. The residual is exact by construction
/// (the ordered mapping is bijective), so *any* scale gives a lossless
/// encoding. False when v/s is not below 9e15 in magnitude (v
/// non-finite, or the quotient past what the rounding is exact for).
bool fit_value(double v, double scale, std::int64_t& k, std::uint64_t& res) {
  const double q = v / scale;
  if (!(std::fabs(q) < 9.0e15)) return false;
  k = round_half_away(q);
  const double approx = static_cast<double>(k) * scale;
  res = zigzag(static_cast<std::int64_t>(to_ordered(bits_of(v)) -
                                         to_ordered(bits_of(approx))));
  return true;
}

std::size_t res_packed_len(std::size_t n, int w) {
  return (n * static_cast<std::size_t>(w) + 7) / 8;
}

/// A scale's candidate sizes: the Δk and ΔΔk varint stream lengths and
/// the OR of the zigzagged residuals, whose bit width is the residual
/// width W (0: the scale reproduces every value exactly).
struct ScaleCost {
  std::size_t dlen{0};
  std::size_t ddlen{0};
  std::uint64_t res_or{0};
};

// The sample prune: a scale whose first kSampleN values already need
// residuals wider than kHopelessResBits (≈ 2.5 B/value packed) is not
// costed on the rest of the column. It decides which mode some columns
// get, so it is part of the format.
constexpr std::size_t kSampleN = 64;
constexpr int kHopelessResBits = 20;

/// Costs one scale in a single pass without allocating. False as soon
/// as the scale cannot win: a value does not fit, the sample prune
/// fires, or a lower bound on every candidate of this scale reaches
/// `best`. The bound is the scale-index byte, the shorter stream so
/// far, at least one byte per value left, and (once a residual is
/// nonzero, so only the residual modes remain) the residual stream at
/// the width seen so far.
bool cost_scale(const double* v, std::size_t n, double scale,
                std::size_t best, ScaleCost& c) {
  const std::size_t sample_n = n < kSampleN ? n : kSampleN;
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  std::size_t dlen = 0;
  std::size_t ddlen = 0;
  std::uint64_t res_or = 0;
  std::size_t res_len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t k = 0;
    std::uint64_t res = 0;
    if (!fit_value(v[i], scale, k, res)) return false;
    const std::int64_t d = k - prev;
    dlen += svarint_len(d);
    ddlen += svarint_len(d - prev_delta);
    prev_delta = d;
    prev = k;
    if ((res & ~res_or) != 0) {
      res_or |= res;
      res_len = 1 + res_packed_len(n, std::bit_width(res_or));
    }
    if (i + 1 == sample_n && std::bit_width(res_or) > kHopelessResBits)
      return false;
    if (1 + std::min(dlen, ddlen) + (n - i - 1) + res_len >= best)
      return false;
  }
  c = ScaleCost{dlen, ddlen, res_or};
  return true;
}

/// LSB-first bit packing at a fixed width per value; the final partial
/// byte is zero-padded.
class BitPacker {
 public:
  explicit BitPacker(BufWriter& w) : w_(w) {}

  /// Appends the low `width` bits of `u` (which has no higher bits).
  void put(std::uint64_t u, int width) {
    if (width > 56) {  // keep filled_ + width within the accumulator
      put(u & 0xFFFFFFFFULL, 32);
      put(u >> 32, width - 32);
      return;
    }
    acc_ |= u << filled_;
    filled_ += width;
    while (filled_ >= 8) {
      w_.put_u8(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void finish() {
    if (filled_ != 0) w_.put_u8(static_cast<std::uint8_t>(acc_));
  }

 private:
  BufWriter& w_;
  std::uint64_t acc_{0};
  int filled_{0};
};

/// Writes a scaled mode's stream(s) for the winning scale, recomputing
/// the quotients: Δk (or ΔΔk) varints, then — when `width` > 0 — the
/// bit-packed residuals.
void put_scaled(BufWriter& w, const double* v, std::size_t n, double scale,
                bool dod, int width) {
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  std::int64_t k = 0;
  std::uint64_t res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    (void)fit_value(v[i], scale, k, res);
    const std::int64_t d = k - prev;
    w.put_svarint(dod ? d - prev_delta : d);
    prev_delta = d;
    prev = k;
  }
  if (width == 0) return;
  BitPacker bits(w);
  for (std::size_t i = 0; i < n; ++i) {
    (void)fit_value(v[i], scale, k, res);
    bits.put(res, width);
  }
  bits.finish();
}

/// The byte-aligned XOR stream of a column: appended to `w` when one is
/// given; its length is returned either way.
std::size_t xor_stream(const double* v, std::size_t n, BufWriter* w) {
  std::size_t len = 0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = bits_of(v[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      ++len;
      if (w) w->put_u8(0);
      continue;
    }
    const int lz = std::countl_zero(x) / 8;
    const int tz = std::countr_zero(x) / 8;
    const int m = 8 - lz - tz;
    len += 1 + static_cast<std::size_t>(m);
    if (!w) continue;
    // Lead byte: 0 is reserved for "same value", so the window is
    // encoded off by one: ((lz << 3) | (m - 1)) + 1, range 1..64.
    w->put_u8(static_cast<std::uint8_t>(((lz << 3) | (m - 1)) + 1));
    std::uint64_t y = x >> (8 * tz);
    for (int j = 0; j < m; ++j) {
      w->put_u8(static_cast<std::uint8_t>(y & 0xFF));
      y >>= 8;
    }
  }
  return len;
}

}  // namespace

void encode_int_column(BufWriter& w, const std::int64_t* v, std::size_t n) {
  // Subtract in uint64 so extreme neighbours wrap instead of hitting
  // signed overflow; the decoder's wrapping accumulation undoes it.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cur = static_cast<std::uint64_t>(v[i]);
    w.put_svarint(static_cast<std::int64_t>(cur - prev));
    prev = cur;
  }
}

void encode_double_column(BufWriter& w, const double* v, std::size_t n) {
  if (n == 0) return;

  // Candidate sizes: raw is the ceiling; XOR always applies; the exact
  // scaled modes apply when one scale reproduces every bit pattern; the
  // residual-corrected scaled modes apply to any finite column (the
  // per-value ULP residual repairs the rounding, so they stay lossless
  // even when the data is only *near* a grid — e.g. quantized
  // timestamps nudged by a monotonicity fix-up). The smallest encoding
  // wins, the earlier candidate on a tie. Sizes below exclude the
  // shared mode byte; the scaled modes carry a one-byte scale index,
  // the residual ones also a one-byte residual bit width plus the
  // packed residuals.
  std::size_t best_len = 8 * n;
  std::uint8_t best_mode = kModeRaw;
  std::size_t best_scale_idx = 0;
  int best_width = 0;

  const std::size_t xor_len = xor_stream(v, n, nullptr);
  if (xor_len < best_len) {
    best_len = xor_len;
    best_mode = kModeXor;
  }

  for (std::size_t si = 0; si < kNumScales; ++si) {
    // A scaled candidate costs at least the scale index plus one byte
    // per value, so once the best is that small no scale can beat it.
    if (best_len <= 1 + n) break;
    ScaleCost c;
    if (!cost_scale(v, n, kScales[si], best_len, c)) continue;
    const int width = std::bit_width(c.res_or);
    const bool exact = c.res_or == 0;
    const std::size_t rlen = 1 + res_packed_len(n, width);
    struct Candidate {
      std::uint8_t mode;
      std::size_t len;
      bool valid;
    } const candidates[] = {
        {kModeScaledDelta, 1 + c.dlen, exact},
        {kModeScaledDod, 1 + c.ddlen, exact},
        {kModeScaledDeltaRes, 1 + c.dlen + rlen, true},
        {kModeScaledDodRes, 1 + c.ddlen + rlen, true},
    };
    for (const auto& cand : candidates) {
      if (!cand.valid || cand.len >= best_len) continue;
      best_len = cand.len;
      best_mode = cand.mode;
      best_scale_idx = si;
      best_width = width;
    }
  }

  w.put_u8(best_mode);
  switch (best_mode) {
    case kModeRaw:
      for (std::size_t i = 0; i < n; ++i) w.put_f64(v[i]);
      return;
    case kModeXor:
      (void)xor_stream(v, n, &w);
      return;
    default:
      // An exact mode won only with width 0, a residual one with > 0.
      w.put_u8(static_cast<std::uint8_t>(best_scale_idx));
      if (best_mode == kModeScaledDeltaRes || best_mode == kModeScaledDodRes)
        w.put_u8(static_cast<std::uint8_t>(best_width));
      put_scaled(w, v, n, kScales[best_scale_idx],
                 best_mode == kModeScaledDod || best_mode == kModeScaledDodRes,
                 best_width);
  }
}

// --- chunked cursors ---------------------------------------------------

namespace {

/// The frame contract, checked after the last row: the codec must have
/// consumed exactly the framed byte count, no more, no less.
void check_frame(const Decoder& d, const ColumnFrame& f) {
  const std::size_t end = f.start + f.len;
  if (d.pos() != end)
    d.fail(ErrorCode::Corrupt,
           std::string("column length mismatch for ") + f.what +
               " column: codec consumed through byte " +
               std::to_string(d.pos()) + " but the frame ends at byte " +
               std::to_string(end));
}

/// A decoder over the whole file, positioned at the column payload.
Decoder at_payload(const std::uint8_t* file, std::size_t size,
                   const ColumnFrame& f) {
  Decoder d(file, size);
  (void)d.get_raw(f.start, f.what);
  return d;
}

}  // namespace

IntColumnCursor::IntColumnCursor(const std::uint8_t* file, std::size_t size,
                                 const ColumnFrame& frame)
    : dec_(at_payload(file, size, frame)), frame_(frame) {}

void IntColumnCursor::next(std::int64_t* out, std::size_t k) {
  MSC_CHECK(produced_ + k <= frame_.n, "int column cursor overrun");
  // Accumulate in uint64 so a hostile delta stream wraps instead of
  // hitting signed overflow; the cast back is two's-complement exact.
  // (A local, because stores through `out` may alias the member.)
  std::uint64_t acc = acc_;
  for (std::size_t i = 0; i < k; ++i) {
    acc += static_cast<std::uint64_t>(dec_.get_svarint());
    out[i] = static_cast<std::int64_t>(acc);
  }
  acc_ = acc;
  produced_ += k;
}

void IntColumnCursor::finish() {
  MSC_CHECK(produced_ == frame_.n, "int column cursor finished early");
  check_frame(dec_, frame_);
}

DoubleColumnCursor::DoubleColumnCursor(const std::uint8_t* file,
                                       std::size_t size,
                                       const ColumnFrame& frame)
    : dec_(at_payload(file, size, frame)), frame_(frame) {
  // A zero-row column is omitted from the file entirely (no frame, no
  // mode byte) — there is nothing to parse, and whatever bytes follow
  // belong to someone else.
  if (frame_.n == 0) return;
  mode_ = dec_.get_u8();
  switch (mode_) {
    case kModeRaw:
    case kModeXor:
      return;
    case kModeScaledDelta:
    case kModeScaledDod:
    case kModeScaledDeltaRes:
    case kModeScaledDodRes: {
      const std::uint8_t si = dec_.get_u8();
      if (si >= kNumScales)
        dec_.fail(ErrorCode::Corrupt,
                  "bad scale index " + std::to_string(static_cast<int>(si)) +
                      " in scaled double column");
      scale_ = kScales[si];
      dod_ = mode_ == kModeScaledDod || mode_ == kModeScaledDodRes;
      if (mode_ == kModeScaledDeltaRes || mode_ == kModeScaledDodRes) {
        width_ = dec_.get_u8();
        if (width_ > 64)
          dec_.fail(ErrorCode::Corrupt,
                    "bad residual bit width " + std::to_string(width_) +
                        " in scaled double column");
        split_ = width_ > 0;
      }
      return;
    }
    default:
      dec_.fail(ErrorCode::Corrupt,
                "unknown double-column mode " +
                    std::to_string(static_cast<int>(mode_)));
  }
}

void DoubleColumnCursor::next(double* out, std::size_t k) {
  MSC_CHECK(produced_ + k <= frame_.n, "double column cursor overrun");
  if (k == 0) return;
  // The loops keep the codec state in locals and store it back at the
  // end: every decoder call could otherwise touch the members, which
  // would send the state through memory once per value.
  switch (mode_) {
    case kModeRaw:
      for (std::size_t i = 0; i < k; ++i) out[i] = dec_.get_f64();
      break;
    case kModeXor: {
      std::uint64_t prev = prev_bits_;
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint8_t c = dec_.get_u8();
        if (c == 0) {
          out[i] = double_of(prev);
          continue;
        }
        if (c > 64)
          dec_.fail(ErrorCode::Corrupt,
                    "bad XOR lead byte " +
                        std::to_string(static_cast<int>(c)) +
                        " in double column");
        const int lz = (c - 1) >> 3;
        const int m = ((c - 1) & 7) + 1;
        if (lz + m > 8)
          dec_.fail(ErrorCode::Corrupt,
                    "bad XOR lead byte: window " + std::to_string(lz) + "+" +
                        std::to_string(m) + " exceeds 8 bytes");
        const int tz = 8 - lz - m;
        std::uint64_t y = 0;
        for (int j = 0; j < m; ++j)
          y |= static_cast<std::uint64_t>(dec_.get_u8()) << (8 * j);
        prev ^= y << (8 * tz);
        out[i] = double_of(prev);
      }
      prev_bits_ = prev;
      break;
    }
    default: {
      // The residual stream starts after the last delta. A first call
      // that takes fewer than every row skips the rest to find it.
      const bool locate = split_ && produced_ == 0;
      if (locate && k < frame_.n) {
        res_dec_ = dec_;
        res_dec_.skip_varints(frame_.n);
      }
      const bool dod = dod_;
      const double scale = scale_;
      std::uint64_t q = k_;
      std::uint64_t delta = delta_;
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t step =
            static_cast<std::uint64_t>(dec_.get_svarint());
        if (dod) {
          delta += step;
          q += delta;
        } else {
          q += step;
        }
        out[i] = static_cast<double>(static_cast<std::int64_t>(q)) * scale;
      }
      k_ = q;
      delta_ = delta;
      if (!split_) break;
      if (locate && k == frame_.n) res_dec_ = dec_;
      // `width` bits per value, LSB-first. Each residual is a zigzagged
      // ULP count in the total-order domain; the wrapping add inverts
      // the encoder's subtraction exactly.
      const int width = width_;
      std::uint64_t buf = res_buf_;
      int avail = res_avail_;
      for (std::size_t i = 0; i < k; ++i) {
        std::uint64_t u = 0;
        int got = 0;
        while (got < width) {
          if (avail == 0) {
            buf = res_dec_.get_u8();
            avail = 8;
          }
          const int take = width - got < avail ? width - got : avail;
          u |= (buf & ((1ULL << take) - 1)) << got;
          buf >>= take;
          avail -= take;
          got += take;
        }
        const std::uint64_t res = (u >> 1) ^ (0 - (u & 1));  // un-zigzag
        out[i] = double_of(from_ordered(to_ordered(bits_of(out[i])) + res));
      }
      res_buf_ = buf;
      res_avail_ = avail;
      break;
    }
  }
  produced_ += k;
}

void DoubleColumnCursor::finish() {
  MSC_CHECK(produced_ == frame_.n, "double column cursor finished early");
  check_frame(split_ ? res_dec_ : dec_, frame_);
}

}  // namespace metascope::colcodec
