// Reference double-column encoder: the mode search colcodec used before
// its one-pass rewrite, kept as an oracle. It fits every probe scale
// into per-value quotient and residual vectors with std::llround, costs
// each mode from those vectors and writes the smallest. The production
// encoder (common/column_codec) must write exactly these bytes for any
// input — the mode choice, including the 64-value sample prune, is part
// of the v3 format. test_trace_v3 and fuzz_column_codec hold the two
// side by side.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"

namespace metascope::test::refcodec {

inline constexpr double kScales[] = {1.0, 1e-3, 1e-6, 1e-7, 1e-9};

inline std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::uint64_t to_ordered(std::uint64_t b) {
  return (b >> 63) != 0 ? ~b : (b | 0x8000000000000000ULL);
}

inline std::size_t svarint_len(std::int64_t v) {
  std::uint64_t u = zigzag(v);
  std::size_t n = 1;
  while (u >= 0x80) {
    u >>= 7;
    ++n;
  }
  return n;
}

struct ScaleFit {
  bool usable{false};
  bool exact{true};
  std::vector<std::int64_t> k;
  std::vector<std::int64_t> res;
};

inline ScaleFit fit_scale(const double* v, std::size_t n, double scale) {
  ScaleFit f;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return f;
    const double q = v[i] / scale;
    if (!(std::fabs(q) < 9.0e15)) return f;
    const std::int64_t ki = std::llround(q);
    const double approx = static_cast<double>(ki) * scale;
    const auto ri = static_cast<std::int64_t>(to_ordered(bits_of(v[i])) -
                                              to_ordered(bits_of(approx)));
    if (ri != 0) f.exact = false;
    f.k.push_back(ki);
    f.res.push_back(ri);
  }
  f.usable = true;
  return f;
}

inline std::size_t delta_len(const std::vector<std::int64_t>& k, bool dod) {
  std::size_t len = 0;
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  for (const std::int64_t ki : k) {
    const std::int64_t d = ki - prev;
    len += svarint_len(dod ? d - prev_delta : d);
    prev_delta = d;
    prev = ki;
  }
  return len;
}

inline void put_deltas(BufWriter& w, const std::vector<std::int64_t>& k,
                       bool dod) {
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  for (const std::int64_t ki : k) {
    const std::int64_t d = ki - prev;
    w.put_svarint(dod ? d - prev_delta : d);
    prev_delta = d;
    prev = ki;
  }
}

inline int res_width(const std::vector<std::int64_t>& res) {
  std::uint64_t all = 0;
  for (const std::int64_t r : res) all |= zigzag(r);
  return std::bit_width(all);
}

inline void put_res_bits(BufWriter& w, const std::vector<std::int64_t>& res,
                         int width) {
  std::uint64_t buf = 0;
  int filled = 0;
  for (const std::int64_t r : res) {
    std::uint64_t u = zigzag(r);
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

inline std::size_t xor_len(const double* v, std::size_t n) {
  std::size_t len = 0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = bits_of(v[i]) ^ prev;
    prev = bits_of(v[i]);
    len += x == 0 ? 1
                  : 9 - static_cast<std::size_t>(std::countl_zero(x) / 8 +
                                                 std::countr_zero(x) / 8);
  }
  return len;
}

inline void put_xor(BufWriter& w, const double* v, std::size_t n) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = bits_of(v[i]) ^ prev;
    prev = bits_of(v[i]);
    if (x == 0) {
      w.put_u8(0);
      continue;
    }
    const int lz = std::countl_zero(x) / 8;
    const int tz = std::countr_zero(x) / 8;
    const int m = 8 - lz - tz;
    w.put_u8(static_cast<std::uint8_t>(((lz << 3) | (m - 1)) + 1));
    std::uint64_t y = x >> (8 * tz);
    for (int j = 0; j < m; ++j) {
      w.put_u8(static_cast<std::uint8_t>(y & 0xFF));
      y >>= 8;
    }
  }
}

/// The reference search: raw, then XOR, then per scale (sample prune,
/// full fit) the four scaled modes in order; strictly smaller wins.
inline void encode_double_column(BufWriter& w, const double* v,
                                 std::size_t n) {
  if (n == 0) return;
  std::size_t best_len = 8 * n;
  std::uint8_t best_mode = 0;
  std::uint8_t best_scale = 0;
  int best_width = 0;
  ScaleFit best_fit;
  if (const std::size_t x = xor_len(v, n); x < best_len) {
    best_len = x;
    best_mode = 1;
  }
  const std::size_t sample_n = n < 64 ? n : 64;
  for (std::size_t si = 0; si < std::size(kScales); ++si) {
    ScaleFit sample = fit_scale(v, sample_n, kScales[si]);
    if (!sample.usable) continue;
    if (!sample.exact && res_width(sample.res) > 20) continue;
    ScaleFit f =
        sample_n == n ? std::move(sample) : fit_scale(v, n, kScales[si]);
    if (!f.usable) continue;
    const std::size_t dlen = delta_len(f.k, false);
    const std::size_t ddlen = delta_len(f.k, true);
    const int width = res_width(f.res);
    const std::size_t rlen = 1 + (n * static_cast<std::size_t>(width) + 7) / 8;
    const struct {
      std::uint8_t mode;
      std::size_t len;
      bool valid;
    } candidates[] = {
        {2, 1 + dlen, f.exact},
        {3, 1 + ddlen, f.exact},
        {4, 1 + dlen + rlen, true},
        {5, 1 + ddlen + rlen, true},
    };
    bool took = false;
    for (const auto& c : candidates) {
      if (!c.valid || c.len >= best_len) continue;
      best_len = c.len;
      best_mode = c.mode;
      best_scale = static_cast<std::uint8_t>(si);
      best_width = width;
      took = true;
    }
    if (took) best_fit = std::move(f);
  }
  w.put_u8(best_mode);
  switch (best_mode) {
    case 0:
      for (std::size_t i = 0; i < n; ++i) w.put_f64(v[i]);
      return;
    case 1:
      put_xor(w, v, n);
      return;
    default:
      w.put_u8(best_scale);
      if (best_mode >= 4) w.put_u8(static_cast<std::uint8_t>(best_width));
      put_deltas(w, best_fit.k, best_mode == 3 || best_mode == 5);
      if (best_mode >= 4) put_res_bits(w, best_fit.res, best_width);
  }
}

}  // namespace metascope::test::refcodec
