#include "common/column_codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

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
  std::size_t n = 1;
  while (u >= 0x80) {
    u >>= 7;
    ++n;
  }
  return n;
}

std::size_t svarint_len(std::int64_t v) { return varint_len(zigzag(v)); }

/// One scale's quotients and ULP-domain residuals: k_i = llround(v_i/s),
/// r_i = ordered(v_i) - ordered(fl(k_i*s)). The residual is exact by
/// construction (the ordered mapping is bijective), so *any* scale gives
/// a lossless encoding; exact == true means every residual is zero and
/// the cheaper residual-free modes apply. `usable` is false when some
/// value is non-finite or the quotient overflows llround's domain.
struct ScaleFit {
  bool usable{false};
  bool exact{true};
  std::vector<std::int64_t> k;
  std::vector<std::int64_t> res;
};

ScaleFit fit_scale(const double* v, std::size_t n, double scale) {
  ScaleFit f;
  f.k.reserve(n);
  f.res.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return f;
    const double q = v[i] / scale;
    if (!(std::fabs(q) < 9.0e15)) return f;  // keep llround defined
    const std::int64_t ki = std::llround(q);
    const double approx = static_cast<double>(ki) * scale;
    const std::int64_t ri =
        static_cast<std::int64_t>(to_ordered(bits_of(v[i])) -
                                  to_ordered(bits_of(approx)));
    if (ri != 0) f.exact = false;
    f.k.push_back(ki);
    f.res.push_back(ri);
  }
  f.usable = true;
  return f;
}

std::size_t delta_stream_len(const std::vector<std::int64_t>& k) {
  std::size_t len = 0;
  std::int64_t prev = 0;
  for (const std::int64_t ki : k) {
    len += svarint_len(ki - prev);
    prev = ki;
  }
  return len;
}

std::size_t dod_stream_len(const std::vector<std::int64_t>& k) {
  std::size_t len = 0;
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  for (const std::int64_t ki : k) {
    const std::int64_t d = ki - prev;
    len += svarint_len(d - prev_delta);
    prev_delta = d;
    prev = ki;
  }
  return len;
}

/// Bits needed per residual when the column's residuals are bit-packed:
/// the widest zigzagged residual decides for everyone (they cluster at
/// 0/±1 ULP, so this is typically 0-2 bits).
int res_bit_width(const std::vector<std::int64_t>& res) {
  std::uint64_t all = 0;
  for (const std::int64_t ri : res) all |= zigzag(ri);
  return std::bit_width(all);
}

std::size_t res_packed_len(std::size_t n, int w) {
  return (n * static_cast<std::size_t>(w) + 7) / 8;
}

void put_delta_stream(BufWriter& w, const std::vector<std::int64_t>& k) {
  std::int64_t prev = 0;
  for (const std::int64_t ki : k) {
    w.put_svarint(ki - prev);
    prev = ki;
  }
}

void put_dod_stream(BufWriter& w, const std::vector<std::int64_t>& k) {
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  for (const std::int64_t ki : k) {
    const std::int64_t d = ki - prev;
    w.put_svarint(d - prev_delta);
    prev_delta = d;
    prev = ki;
  }
}

/// LSB-first bit-packing of the zigzagged residuals at `width` bits
/// each; the final partial byte is zero-padded.
void put_res_bits(BufWriter& w, const std::vector<std::int64_t>& res,
                  int width) {
  std::uint64_t buf = 0;
  int filled = 0;
  for (const std::int64_t ri : res) {
    std::uint64_t u = zigzag(ri);
    int left = width;
    while (left > 0) {
      const int take = left < 8 - filled ? left : 8 - filled;
      buf |= (u & ((1ULL << take) - 1)) << filled;
      u >>= take;
      filled += take;
      left -= take;
      if (filled == 8) {
        w.put_u8(static_cast<std::uint8_t>(buf));
        buf = 0;
        filled = 0;
      }
    }
  }
  if (filled != 0) w.put_u8(static_cast<std::uint8_t>(buf));
}

std::size_t xor_stream_len(const double* v, std::size_t n) {
  std::size_t len = 0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = bits_of(v[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      ++len;
      continue;
    }
    const int lz = std::countl_zero(x) / 8;
    const int tz = std::countr_zero(x) / 8;
    len += 1 + static_cast<std::size_t>(8 - lz - tz);
  }
  return len;
}

void put_xor_stream(BufWriter& w, const double* v, std::size_t n) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = bits_of(v[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      w.put_u8(0);
      continue;
    }
    const int lz = std::countl_zero(x) / 8;
    const int tz = std::countr_zero(x) / 8;
    const int m = 8 - lz - tz;
    // Lead byte: 0 is reserved for "same value", so the window is
    // encoded off by one: ((lz << 3) | (m - 1)) + 1, range 1..64.
    w.put_u8(static_cast<std::uint8_t>(((lz << 3) | (m - 1)) + 1));
    std::uint64_t y = x >> (8 * tz);
    for (int j = 0; j < m; ++j) {
      w.put_u8(static_cast<std::uint8_t>(y & 0xFF));
      y >>= 8;
    }
  }
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
  // wins. Sizes below exclude the shared mode byte; the scaled modes
  // carry a one-byte scale index, the residual ones also a one-byte
  // residual bit width plus the packed residuals.
  std::size_t best_len = 8 * n;
  std::uint8_t best_mode = kModeRaw;
  std::uint8_t best_scale_idx = 0;
  int best_width = 0;
  ScaleFit best_fit;

  const std::size_t xor_len = xor_stream_len(v, n);
  if (xor_len < best_len) {
    best_len = xor_len;
    best_mode = kModeXor;
  }

  // Sample-based prune before the O(n) fits: a prefix's residual bit
  // width only grows with more values, so a scale whose sample already
  // needs wide residuals (> 20 bits ≈ 2.5 B/value packed) cannot beat
  // XOR/raw on the full column and is skipped without a full pass.
  constexpr std::size_t kSampleN = 64;
  constexpr int kHopelessResBits = 20;
  const std::size_t sample_n = n < kSampleN ? n : kSampleN;
  for (std::size_t si = 0; si < kNumScales; ++si) {
    ScaleFit sample = fit_scale(v, sample_n, kScales[si]);
    if (!sample.usable) continue;
    if (!sample.exact && res_bit_width(sample.res) > kHopelessResBits)
      continue;
    ScaleFit f = sample_n == n ? std::move(sample)
                               : fit_scale(v, n, kScales[si]);
    if (!f.usable) continue;
    const std::size_t dlen = delta_stream_len(f.k);
    const std::size_t ddlen = dod_stream_len(f.k);
    const int width = res_bit_width(f.res);
    const std::size_t rlen = 1 + res_packed_len(n, width);
    struct Candidate {
      std::uint8_t mode;
      std::size_t len;
      bool valid;
    } const candidates[] = {
        {kModeScaledDelta, 1 + dlen, f.exact},
        {kModeScaledDod, 1 + ddlen, f.exact},
        {kModeScaledDeltaRes, 1 + dlen + rlen, true},
        {kModeScaledDodRes, 1 + ddlen + rlen, true},
    };
    bool took = false;
    for (const auto& c : candidates) {
      if (!c.valid || c.len >= best_len) continue;
      best_len = c.len;
      best_mode = c.mode;
      best_scale_idx = static_cast<std::uint8_t>(si);
      best_width = width;
      took = true;
    }
    if (took) best_fit = std::move(f);
  }

  w.put_u8(best_mode);
  switch (best_mode) {
    case kModeRaw:
      for (std::size_t i = 0; i < n; ++i) w.put_f64(v[i]);
      break;
    case kModeXor:
      put_xor_stream(w, v, n);
      break;
    case kModeScaledDelta:
      w.put_u8(best_scale_idx);
      put_delta_stream(w, best_fit.k);
      break;
    case kModeScaledDod:
      w.put_u8(best_scale_idx);
      put_dod_stream(w, best_fit.k);
      break;
    case kModeScaledDeltaRes:
      w.put_u8(best_scale_idx);
      w.put_u8(static_cast<std::uint8_t>(best_width));
      put_delta_stream(w, best_fit.k);
      put_res_bits(w, best_fit.res, best_width);
      break;
    case kModeScaledDodRes:
      w.put_u8(best_scale_idx);
      w.put_u8(static_cast<std::uint8_t>(best_width));
      put_dod_stream(w, best_fit.k);
      put_res_bits(w, best_fit.res, best_width);
      break;
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
