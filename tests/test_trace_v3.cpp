// Trace format v3 contract tests: the per-column codecs (bit-lossless
// double compression incl. the residual-corrected scaled modes), the
// columnar trace layout, cross-version migration (the committed v2
// archive re-written as v3 must preserve every event bit and every
// golden severity-cube cell), the compression gain itself, and the exact
// ErrorCode taxonomy for v3-specific damage (bad type nibbles, column
// frame truncation, column-length and per-type-count mismatches).
//
// Only v3 is written; the v1/v2 inputs are committed files in
// tests/golden/legacy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "clocksync/correction.hpp"
#include "common/binary_io.hpp"
#include "common/column_codec.hpp"
#include "column_codec_reference.hpp"
#include "common/error.hpp"
#include "simnet/presets.hpp"
#include "simnet/topology.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope {
namespace {

namespace fs = std::filesystem;
using tracing::Event;
using tracing::EventType;
using tracing::LocalTrace;
using tracing::TraceCollection;

// --- double-column codec --------------------------------------------------

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

/// Decodes an encoded double column (the whole buffer is its frame)
/// through a cursor, `chunk` rows per call.
std::vector<double> decode_doubles(const std::vector<std::uint8_t>& payload,
                                   std::size_t n, std::size_t chunk) {
  const colcodec::ColumnFrame frame{0, payload.size(), n, "test"};
  colcodec::DoubleColumnCursor cur(payload.data(), payload.size(), frame);
  std::vector<double> out(n);
  for (std::size_t at = 0; at < n; at += chunk)
    cur.next(out.data() + at, std::min(chunk, n - at));
  cur.finish();
  return out;
}

/// Chunk sizes every codec test decodes at: one row per call, a few, and
/// every row in the first call (a residual-mode column locates its
/// residual stream differently in the last case).
std::vector<std::size_t> chunks(std::size_t n) {
  return {1, 7, std::max<std::size_t>(n, 1)};
}

/// Encodes, decodes at every chunk size, and asserts bit-identity;
/// returns the mode byte.
int round_trip_doubles(const std::vector<double>& v) {
  BufWriter w;
  colcodec::encode_double_column(w, v.data(), v.size());
  for (const std::size_t chunk : chunks(v.size())) {
    const std::vector<double> out = decode_doubles(w.data(), v.size(), chunk);
    for (std::size_t i = 0; i < v.size(); ++i)
      EXPECT_EQ(bits_of(out[i]), bits_of(v[i]))
          << "index " << i << ", chunk " << chunk;
  }
  return w.size() == 0 ? -1 : static_cast<int>(w.data()[0]);
}

TEST(DoubleColumn, SpecialValuesRoundTripBitExactly) {
  const std::vector<double> specials = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      double_of(0x7FF8000000000F0FULL),  // NaN with payload
      double_of(0xFFF8000000000001ULL),  // negative NaN
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MAX,
      -DBL_MAX,
      DBL_MIN,
      1.0,
      -1.0,
  };
  round_trip_doubles(specials);
  // Each special alone, and repeated (the XOR repeat path).
  for (const double s : specials) {
    round_trip_doubles({s});
    round_trip_doubles({s, s, s});
  }
}

TEST(DoubleColumn, GridValuesPickAnExactScaledMode) {
  // Exact multiples of the 1e-7 clock granularity, monotone: both the
  // fit and the round trip must be exact, and the encoder must prefer a
  // scaled mode (2 or 3) over XOR.
  std::vector<double> v;
  std::int64_t k = 10'000'000;
  for (int i = 0; i < 200; ++i) {
    k += 13 + (i % 5);
    v.push_back(static_cast<double>(k) * 1e-7);
  }
  const int mode = round_trip_doubles(v);
  EXPECT_TRUE(mode == 2 || mode == 3) << "mode " << mode;
}

TEST(DoubleColumn, NudgedGridValuesPickAResidualModeAndStayLossless) {
  // What measurement.cpp actually produces: granularity-quantized
  // stamps occasionally nudged off-grid by the +1e-9 monotonicity
  // fix-up. No single scale reproduces these exactly, so the encoder
  // must fall back to a residual-corrected scaled mode (4 or 5) and
  // still round-trip every bit.
  std::vector<double> v;
  double base = 1.0, last = 0.0;
  for (int i = 0; i < 500; ++i) {
    base += 1e-5;
    double stamp = std::floor(base / 1e-7) * 1e-7;
    if (i % 7 == 0) stamp = last + 1e-9;  // off-grid nudge
    if (stamp <= last) stamp = last + 1e-9;
    last = stamp;
    v.push_back(stamp);
  }
  const int mode = round_trip_doubles(v);
  EXPECT_TRUE(mode == 4 || mode == 5) << "mode " << mode;
  // The residual trick must beat XOR comfortably on this shape.
  BufWriter w;
  colcodec::encode_double_column(w, v.data(), v.size());
  EXPECT_LT(w.size(), 4 * v.size()) << "bytes " << w.size();
}

TEST(DoubleColumn, EmptyColumnEncodesToNothing) {
  BufWriter w;
  colcodec::encode_double_column(w, nullptr, 0);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(decode_doubles(w.data(), 0, 1).empty());
}

/// Encodes `v` with the production encoder and the reference search and
/// requires identical bytes and a bit-exact round trip.
void expect_reference_bytes(const std::vector<double>& v,
                            const std::string& label) {
  BufWriter got;
  colcodec::encode_double_column(got, v.data(), v.size());
  BufWriter want;
  test::refcodec::encode_double_column(want, v.data(), v.size());
  ASSERT_EQ(got.data(), want.data())
      << label << " (n = " << v.size() << ", mode "
      << (got.size() != 0 ? static_cast<int>(got.data()[0]) : -1) << " vs "
      << (want.size() != 0 ? static_cast<int>(want.data()[0]) : -1) << ")";
  const std::vector<double> out = decode_doubles(got.data(), v.size(), 3);
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(bits_of(out[i]), bits_of(v[i])) << label << ", index " << i;
}

TEST(DoubleColumn, ModeSearchMatchesParentSearch) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double scales[] = {1.0, 1e-3, 1e-6, 1e-7, 1e-9};

  // Quotients at exactly ±k.5 (round half away from zero), and their
  // neighbours one ULP either side.
  std::vector<double> halves;
  for (const double h : {0.5, 1.5, 2.5, 1e6 + 0.5, 4503599627370494.5,
                         4503599627370495.5}) {
    for (const double s : {h, -h}) {
      halves.push_back(s);
      halves.push_back(std::nextafter(s, 0.0));
      halves.push_back(std::nextafter(s, 2 * s));
    }
  }
  expect_reference_bytes(halves, "half quotients");
  for (const double h : halves) {
    expect_reference_bytes({h}, "half quotient alone");
    expect_reference_bytes({h, h, -h}, "half quotient repeated");
  }
  // Half-unit steps from 2^51, where the ULP is 0.5: every other
  // quotient is an exact k.5 one ULP from either neighbour, and the
  // winning Δ+r column's residual bits depend on which way it rounds.
  for (const double sign : {1.0, -1.0}) {
    std::vector<double> v;
    for (int i = 0; i < 100; ++i)
      v.push_back(sign * (2251799813685248.0 + 0.5 * i));
    expect_reference_bytes(v, "k.5 quotients one ULP off the grid");
  }
  for (const double s : scales) {
    std::vector<double> v;
    for (int k = -40; k <= 40; ++k) v.push_back((k + 0.5) * s);
    expect_reference_bytes(v, "k.5 grid at scale " + std::to_string(s));
    for (const double h : v) expect_reference_bytes({h, h + s}, "k.5 pair");
  }

  // |q| just below and above the 9e15 quotient cap, at every scale and
  // on both sides of the 64-value sample.
  for (const double s : scales) {
    const double edge = 9.0e15 * s;
    for (const double e : {std::nextafter(edge, 0.0), edge,
                           std::nextafter(edge, inf), edge - 2 * s}) {
      for (const double x : {e, -e}) {
        expect_reference_bytes({x}, "quotient cap");
        expect_reference_bytes({0.0, x, x}, "quotient cap mid");
        std::vector<double> late(70, 3 * s);
        late[66] = x;
        expect_reference_bytes(late, "quotient cap after the sample");
      }
    }
  }

  // Non-finite values, signed zero and subnormals, alone, in front of
  // a grid, and past the sample.
  for (const double x : {nan, -nan, inf, -inf, -0.0, 0.0, sub, -sub,
                         4 * sub, DBL_MIN, -DBL_MIN}) {
    expect_reference_bytes({x}, "special alone");
    expect_reference_bytes({x, x, x}, "special repeated");
    std::vector<double> v = {x};
    for (int i = 1; i < 80; ++i) v.push_back(i * 1e-7);
    expect_reference_bytes(v, "special then grid");
    std::swap(v.front(), v[70]);
    expect_reference_bytes(v, "grid then special past the sample");
  }

  // Every length from 1 to 65 values: grids, 1-ULP-nudged grids, wide
  // residuals that start inside or just past the sample, and constants.
  for (std::size_t n = 1; n <= 66; ++n) {
    std::vector<double> grid, nudged, wide_in, wide_after;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = static_cast<double>(1000 + 17 * i) * 1e-7;
      grid.push_back(g);
      nudged.push_back(i % 3 == 0   ? std::nextafter(g, inf)
                       : i % 3 == 1 ? std::nextafter(g, 0.0)
                                    : g);
      wide_in.push_back(i + 1 == std::min<std::size_t>(n, 64) ? g * 1.0001
                                                              : g);
      wide_after.push_back(i >= 64 ? g * 1.0001 : g);
    }
    expect_reference_bytes(grid, "grid");
    expect_reference_bytes(nudged, "1-ULP-nudged grid");
    expect_reference_bytes(wide_in, "wide residual at the sample's end");
    expect_reference_bytes(wide_after, "wide residual past the sample");
    for (const double c : {0.0, -0.0, 1.0, 1e-7, 3.14159, 1e300, nan})
      expect_reference_bytes(std::vector<double>(n, c), "constant");
  }

  // Measurement-shaped columns: quantized timestamps with monotonicity
  // nudges, integral byte counts, clock-corrected (off-grid) stamps, and
  // arbitrary bit patterns.
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + next() % 300;
    std::vector<double> stamps, bytes, corrected, patterns;
    double base = 1.0 + static_cast<double>(next() % 1000);
    double last = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      base += static_cast<double>(next() % 50000) * 1e-9;
      double stamp = std::floor(base / 1e-7) * 1e-7;
      if (stamp <= last) stamp = last + 1e-9;
      last = stamp;
      stamps.push_back(stamp);
      bytes.push_back(static_cast<double>(next() % (1u << (round % 24))));
      corrected.push_back(stamp * (1.0 + 3e-6) - 2.5e-4);
      patterns.push_back(double_of(next()));
    }
    expect_reference_bytes(stamps, "quantized stamps");
    expect_reference_bytes(bytes, "byte counts");
    expect_reference_bytes(corrected, "corrected stamps");
    expect_reference_bytes(patterns, "bit patterns");
  }
}

TEST(IntColumn, ExtremesRoundTrip) {
  const std::vector<std::int64_t> v = {
      0,
      1,
      -1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      42,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
  };
  BufWriter w;
  colcodec::encode_int_column(w, v.data(), v.size());
  const colcodec::ColumnFrame frame{0, w.size(), v.size(), "test"};
  for (const std::size_t chunk : chunks(v.size())) {
    colcodec::IntColumnCursor cur(w.data().data(), w.size(), frame);
    std::vector<std::int64_t> out(v.size());
    for (std::size_t at = 0; at < v.size(); at += chunk)
      cur.next(out.data() + at, std::min(chunk, v.size() - at));
    cur.finish();
    EXPECT_EQ(out, v) << "chunk " << chunk;
  }
}

void expect_decode_failure(const std::vector<std::uint8_t>& payload,
                           std::size_t n, ErrorCode code,
                           const std::string& needle) {
  for (const std::size_t chunk : chunks(n)) {
    try {
      (void)decode_doubles(payload, n, chunk);
      FAIL() << "expected Error containing \"" << needle << "\"";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(DoubleColumn, BadXorLeadBytesAreCorrupt) {
  // Lead byte 65 is out of range outright; 64 decodes to a 7+8 byte
  // window, which exceeds the 8 bytes of a double.
  expect_decode_failure({1, 65}, 1, ErrorCode::Corrupt, "XOR lead byte");
  expect_decode_failure({1, 64}, 1, ErrorCode::Corrupt, "XOR lead byte");
}

TEST(DoubleColumn, UnknownModeIsCorrupt) {
  expect_decode_failure({6}, 1, ErrorCode::Corrupt, "double-column mode");
  expect_decode_failure({255}, 1, ErrorCode::Corrupt, "double-column mode");
}

TEST(DoubleColumn, BadScaleIndexIsCorrupt) {
  for (const std::uint8_t mode : {2, 3, 4, 5})
    expect_decode_failure({mode, 200}, 1, ErrorCode::Corrupt, "scale index");
}

TEST(DoubleColumn, BadResidualBitWidthIsCorrupt) {
  for (const std::uint8_t mode : {4, 5})
    expect_decode_failure({mode, 0, 65}, 1, ErrorCode::Corrupt,
                          "residual bit width");
}

TEST(DoubleColumn, TruncatedStreamsAreTruncated) {
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(0.25 * i + (i % 3) * 1e-9);
  BufWriter w;
  colcodec::encode_double_column(w, v.data(), v.size());
  for (const std::size_t keep : {w.size() - 1, w.size() / 2, std::size_t{1}}) {
    std::vector<std::uint8_t> cut(w.data().begin(),
                                  w.data().begin() +
                                      static_cast<std::ptrdiff_t>(keep));
    for (const std::size_t chunk : chunks(v.size()))
      EXPECT_THROW((void)decode_doubles(cut, v.size(), chunk), Error)
          << "keep=" << keep << ", chunk " << chunk;
  }
}

// --- v3 trace layout ------------------------------------------------------

std::vector<std::uint8_t> legacy_file(const std::string& name) {
  return read_file_bytes(std::string(MSC_LEGACY_DIR) + "/" + name);
}

/// Construction must stay in sync with the committed legacy fixtures:
/// tests/golden/legacy/mixed.v{1,2}.elg hold mixed_trace(5, 137).
LocalTrace mixed_trace(Rank rank, int n) {
  LocalTrace t;
  t.rank = rank;
  double last = 0.0;
  for (int i = 0; i < n; ++i) {
    Event e;
    double stamp = std::floor((0.001 * (i + 1)) / 1e-7) * 1e-7;
    if (stamp <= last) stamp = last + 1e-9;
    last = stamp;
    e.time = stamp;
    switch (i % 5) {
      case 0:
        e.type = EventType::Enter;
        e.region = RegionId{i % 4};
        break;
      case 1:
        e.type = EventType::Send;
        e.peer = (rank + 1) % 8;
        e.tag = i;
        e.bytes = 1024.0;
        e.comm = CommId{0};
        break;
      case 2:
        e.type = EventType::Recv;
        e.peer = (rank + 7) % 8;
        e.tag = i;
        e.bytes = 1024.0;
        e.comm = CommId{0};
        break;
      case 3:
        e.type = EventType::CollExit;
        e.region = RegionId{1};
        e.comm = CommId{0};
        e.root = 0;
        e.bytes = 256.0;
        e.sent_bytes = 256.0;
        e.recvd_bytes = 2048.0;
        break;
      case 4:
        e.type = EventType::Exit;
        break;
    }
    t.events.push_back(e);
  }
  for (int p = 0; p < 2; ++p) {
    tracing::OffsetRecord s;
    s.phase = p;
    s.ref_rank = 0;
    s.local_mid = 0.5 + 0.001 * p;
    s.offset = -3.5e-4;
    s.error_bound = 2.1e-6;
    t.sync.push_back(s);
  }
  return t;
}

TEST(TraceV3, EveryVersionRoundTripsEveryEventBit) {
  const LocalTrace t = mixed_trace(5, 137);  // odd count: padding nibble
  EXPECT_EQ(tracing::decode_local_trace(tracing::encode_local_trace(t)), t);
  for (const char* name : {"mixed.v1.elg", "mixed.v2.elg"})
    EXPECT_EQ(tracing::decode_local_trace(legacy_file(name)), t) << name;
}

TEST(TraceV3, ColumnarFormatIsSubstantiallySmaller) {
  // The same trace as the committed v2 file: v3 must come in at least 3x
  // under it. The archive-level gate lives in the bench smoke job.
  const auto v2 = legacy_file("mixed.v2.elg");
  const auto v3 = tracing::encode_local_trace(mixed_trace(5, 137));
  EXPECT_GE(v2.size(), 3 * v3.size())
      << "v2 " << v2.size() << " vs v3 " << v3.size();
}

TEST(TraceV3, InMemoryBytesCountsResidentSize) {
  const LocalTrace t = mixed_trace(1, 10);
  EXPECT_EQ(tracing::in_memory_bytes(t),
            10 * sizeof(Event) + 2 * sizeof(tracing::OffsetRecord));
  TraceCollection tc;
  tc.ranks.push_back(mixed_trace(0, 4));
  tc.ranks.push_back(mixed_trace(1, 6));
  EXPECT_EQ(tracing::in_memory_bytes(tc),
            tracing::in_memory_bytes(tc.ranks[0]) +
                tracing::in_memory_bytes(tc.ranks[1]));
}

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(TraceV3, EncodedBytesArePinned) {
  // Every rank of a small MetaTrace run, raw and synchronized, pinned
  // by the digest of its v3 bytes. The encoder may get faster, never
  // different: a changed mode choice or column order shows up here.
  workloads::MetaTraceConfig mt;
  mt.coupling_steps = 2;
  mt.cg_iterations = 12;
  auto data = workloads::run_experiment(simnet::make_viola_experiment1(),
                                        workloads::build_metatrace(mt));
  TraceCollection synced = data.traces;
  clocksync::synchronize(synced, 1);
  static constexpr std::uint64_t kPinned[][2] = {
      {0xEAFF45480F7FE179ULL, 0xEAFF45480F7FE179ULL},
      {0xC3B0E80B71DA808EULL, 0xB96A5B4A3CB06063ULL},
      {0xEAB0C73B87E4D423ULL, 0x16648CB93BD9D85EULL},
      {0xA12B12A665238D70ULL, 0x44EA38061FC2D3B2ULL},
      {0xFC1B8C8E83742DA9ULL, 0x44609781B0464D45ULL},
      {0x47481C09283E12A6ULL, 0x7D998592143D2AAEULL},
      {0x385D36F2B6B73DC3ULL, 0xDC85EDE1AEFDD380ULL},
      {0xAD76E744CCEB5B31ULL, 0x27B0D0AD65DC2696ULL},
      {0xB277FCB3C8DC844EULL, 0x8EF5E7660F1AE056ULL},
      {0x082547F9C6D697A4ULL, 0x9B1CC2BB23795B91ULL},
      {0x5BCF3BE49A0C5C0EULL, 0xEA6AC120D3C819FEULL},
      {0x36305C08B6634060ULL, 0xC8A41A6CE1C7731AULL},
      {0xDC6498C61973FD20ULL, 0x5378F74147D7A230ULL},
      {0x2A8ABC984D908BA2ULL, 0x03DC908252279CB5ULL},
      {0xED91DC8C6317315BULL, 0x7F4AB0E2CCCCCEF6ULL},
      {0x4BCFD40B8C813883ULL, 0x8A87DA0A8385791CULL},
      {0xA3B60735100E3DEEULL, 0xDDACD6D14D5785F5ULL},
      {0xFF6CDFBA79A1D217ULL, 0x6FB7FB156861A0FAULL},
      {0x203165964DF43C42ULL, 0xADA1618A5DB2D81FULL},
      {0xFD15AC73DDECC18DULL, 0xE967FBCEE81971B2ULL},
      {0x0CBFFCD7A8B2BEF2ULL, 0x3FDB9FA397F386FFULL},
      {0x6E95B6CBF49E14EDULL, 0x95EEB38C5299FD41ULL},
      {0x35F92DDA5633BBD8ULL, 0x6E48C00EB2B4CB88ULL},
      {0x7C7250F036152A74ULL, 0xDC623F3E1E4B3BC0ULL},
      {0x9EFC79CE6B9C52ABULL, 0x8A26E225DC2FE57FULL},
      {0x02A46132DC088B39ULL, 0xDB69E1A5CE3826D7ULL},
      {0xC0B15F29FE3C519AULL, 0x11E1C0873F66834CULL},
      {0xF88F664F10861048ULL, 0x70F01C1E9BCC14E8ULL},
      {0x56A7570626710E9CULL, 0x0A82C5A943E1FAF3ULL},
      {0xBE1772EFB7202C50ULL, 0xC494F45C6B5BC72CULL},
      {0x374EB4E3539B6298ULL, 0x733A95D3B36694A2ULL},
      {0xE2F8A491238EEAF3ULL, 0xA08773E7B4DBC8D4ULL},
  };
  ASSERT_EQ(data.traces.num_ranks(),
            static_cast<int>(std::size(kPinned)));
  std::ostringstream table;
  bool same = true;
  for (std::size_t r = 0; r < data.traces.ranks.size(); ++r) {
    const std::uint64_t raw =
        fnv1a(tracing::encode_local_trace(data.traces.ranks[r]));
    const std::uint64_t sync =
        fnv1a(tracing::encode_local_trace(synced.ranks[r]));
    same = same && raw == kPinned[r][0] && sync == kPinned[r][1];
    table << std::hex << std::uppercase << std::setfill('0') << "      {0x"
          << std::setw(16) << raw << "ULL, 0x" << std::setw(16) << sync
          << "ULL},\n";
  }
  EXPECT_TRUE(same) << "encoded bytes moved; digests now:\n" << table.str();
}

// --- v3 corruption taxonomy ----------------------------------------------
//
// A minimal v3 trace with deterministic offsets: rank 0, no sync
// records, one Enter event. Header: magic[0..3] version[4..7] rank@8
// nsync@9 nev@10 per-type-counts@11..15, nibble type stream @16, time
// column frame @17.

std::vector<std::uint8_t> one_enter_trace() {
  LocalTrace t;
  t.rank = 0;
  Event e;
  e.type = EventType::Enter;
  e.region = RegionId{2};
  e.time = 0.5;
  t.events.push_back(e);
  return tracing::encode_local_trace(t);
}

void expect_trace_failure(std::vector<std::uint8_t> bytes, ErrorCode code,
                          const std::string& needle) {
  try {
    (void)tracing::decode_local_trace(bytes);
    FAIL() << "expected Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(TraceV3Corrupt, UnknownTypeNibbleIsCorrupt) {
  auto bytes = one_enter_trace();
  bytes[16] = 0x07;  // low nibble 7: no such EventType
  expect_trace_failure(std::move(bytes), ErrorCode::Corrupt,
                       "unknown event type 7 in type stream");
}

TEST(TraceV3Corrupt, NonzeroPaddingNibbleIsCorrupt) {
  auto bytes = one_enter_trace();
  bytes[16] = 0x10;  // odd event count: the high nibble is padding
  expect_trace_failure(std::move(bytes), ErrorCode::Corrupt,
                       "nonzero padding nibble");
}

TEST(TraceV3Corrupt, PerTypeCountSumMismatchIsCorrupt) {
  auto bytes = one_enter_trace();
  bytes[11] = 2;  // Enter count 1 -> 2; sum 2 != declared 1 event
  expect_trace_failure(std::move(bytes), ErrorCode::Corrupt,
                       "per-type event counts sum");
}

TEST(TraceV3Corrupt, TypeStreamTallyMismatchIsCorrupt) {
  auto bytes = one_enter_trace();
  bytes[11] = 0;  // Enter 1 -> 0 ...
  bytes[12] = 1;  // ... Exit 0 -> 1: sum still 1, tallies disagree
  expect_trace_failure(std::move(bytes), ErrorCode::Corrupt,
                       "type stream has");
}

TEST(TraceV3Corrupt, ColumnLengthMismatchIsCorrupt) {
  auto bytes = one_enter_trace();
  // The time column's frame claims one byte more than its codec
  // payload; the decoder must flag the mismatch, not absorb the
  // neighbouring column's bytes.
  bytes[17] += 1;
  expect_trace_failure(std::move(bytes), ErrorCode::Corrupt,
                       "column length mismatch");
}

TEST(TraceV3Corrupt, TruncatedColumnIsTruncated) {
  const auto intact = one_enter_trace();
  // Every cut from inside the time frame to the last byte must surface
  // as the canonical truncation diagnosis.
  for (std::size_t keep = 18; keep < intact.size(); ++keep) {
    std::vector<std::uint8_t> cut(intact.begin(),
                                  intact.begin() +
                                      static_cast<std::ptrdiff_t>(keep));
    expect_trace_failure(std::move(cut), ErrorCode::Truncated,
                         "truncated trace file");
  }
}

TEST(TraceV3Corrupt, OversizedColumnFrameIsTruncated) {
  auto bytes = one_enter_trace();
  bytes[17] = 200;  // frame declares more bytes than the file holds
  expect_trace_failure(std::move(bytes), ErrorCode::Truncated, "column");
}

// Both reads of a v3 file — decode_local_trace and a TraceStream read in
// windows of three events — must fail at the same file-absolute offset
// when a time column's codec bytes are damaged.

/// A rank-0 trace of alternating Enter/Exit events whose time column is
/// `times`.
std::vector<std::uint8_t> enter_exit_trace(const std::vector<double>& times) {
  LocalTrace t;
  t.rank = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    Event e;
    e.type = i % 2 == 0 ? EventType::Enter : EventType::Exit;
    e.time = times[i];
    t.events.push_back(e);
  }
  return tracing::encode_local_trace(t);
}

/// Offset of the time column's payload in enter_exit_trace: fixed-size
/// header and single-byte varints for fewer than 128 events, no sync
/// records, then the type stream and the frame's length byte.
std::size_t time_payload(std::size_t nev) { return 16 + (nev + 1) / 2 + 1; }

Error windowed_error(const std::vector<std::uint8_t>& bytes) {
  try {
    tracing::TraceStream s(bytes.data(), bytes.size(), "t.elg");
    std::vector<Event> sink;
    while (s.next(sink, 3) != 0) {
    }
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "windowed read accepted the file";
  return Error("no error");
}

void expect_same_corrupt_offset(const std::vector<std::uint8_t>& bytes,
                                std::int64_t offset, const char* needle) {
  try {
    (void)tracing::decode_local_trace(bytes, "t.elg");
    ADD_FAILURE() << "decode_local_trace accepted the file";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    EXPECT_EQ(e.context().byte_offset, offset) << e.what();
    EXPECT_EQ(e.context().path, "t.elg");
  }
  const Error w = windowed_error(bytes);
  EXPECT_EQ(w.code(), ErrorCode::Corrupt) << w.what();
  EXPECT_NE(std::string(w.what()).find(needle), std::string::npos) << w.what();
  EXPECT_EQ(w.context().byte_offset, offset) << w.what();
  EXPECT_EQ(w.context().path, "t.elg");
  EXPECT_EQ(w.context().rank, 0);
}

TEST(TraceV3Corrupt, BadXorLeadByteHasOneFileOffsetInBothReads) {
  // Off-grid values in runs of four: only the XOR mode fits them.
  std::vector<double> times;
  for (int i = 0; i < 12; ++i) times.push_back(3.141592653589793 * (1 + i / 4));
  auto bytes = enter_exit_trace(times);
  std::size_t at = time_payload(times.size());
  ASSERT_EQ(bytes[at], 1) << "time column is not XOR-coded";
  // Step to the lead byte of event 4 (the second window) and break it.
  ++at;
  for (int i = 0; i < 4; ++i)
    at += 1 + (bytes[at] == 0 ? 0 : ((bytes[at] - 1) & 7) + 1);
  bytes[at] = 65;
  expect_same_corrupt_offset(bytes, static_cast<std::int64_t>(at + 1),
                             "bad XOR lead byte");
}

TEST(TraceV3Corrupt, BadScaleIndexHasOneFileOffsetInBothReads) {
  // Exact multiples of 1e-3: a scaled mode, whose scale index follows
  // the mode byte.
  std::vector<double> times;
  for (int i = 0; i < 12; ++i) times.push_back(0.001 * (i * i + 1));
  auto bytes = enter_exit_trace(times);
  const std::size_t at = time_payload(times.size());
  ASSERT_GE(bytes[at], 2) << "time column is not scale-coded";
  bytes[at + 1] = 200;
  expect_same_corrupt_offset(bytes, static_cast<std::int64_t>(at + 2),
                             "bad scale index");
}

// --- cross-version migration against the golden fixture ------------------
//
// The wait-barrier-local seed workload from the pattern-engine golden
// fixture, committed as a v2 archive (tests/golden/legacy/wait_barrier.v2)
// and re-built here (construction must stay in sync with
// test_pattern_engine.cpp). The v2 archive is read, re-written as v3 and
// read again: every event bit must survive, and the legacy-selection
// severity cube of the migrated collection must reproduce the fixture
// cells exactly.

simnet::Topology local_topo(int n) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = n;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, n, 1);
  return topo;
}

TraceCollection wait_barrier_traces() {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  auto data = workloads::run_experiment(
      local_topo(4), workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}),
      cfg);
  return std::move(data.traces);
}

using RowMap = std::map<std::string, double>;

RowMap golden_rows(const std::string& workload) {
  RowMap out;
  std::ifstream in(MSC_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "missing fixture " << MSC_GOLDEN_FILE;
  std::string line;
  bool active = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("workload ", 0) == 0) {
      active = line.substr(9) == workload;
      continue;
    }
    if (!active) continue;
    const std::size_t last_sep = line.rfind(" | ");
    EXPECT_NE(last_sep, std::string::npos) << line;
    if (last_sep == std::string::npos) continue;
    std::istringstream tail(line.substr(last_sep + 3));
    int rank = -1;
    std::string hex;
    tail >> rank >> hex;
    out[line.substr(0, last_sep) + " | " + std::to_string(rank)] =
        std::strtod(hex.c_str(), nullptr);
  }
  EXPECT_FALSE(out.empty()) << "fixture has no rows for " << workload;
  return out;
}

RowMap cube_rows(const report::Cube& cube) {
  RowMap rows;
  for (MetricId m : cube.metrics.preorder()) {
    const std::string& metric = cube.metrics.def(m).name;
    for (CallPathId c : cube.calls.preorder()) {
      const std::string path = cube.calls.path_string(c, cube.regions);
      for (Rank r = 0; r < cube.num_ranks(); ++r) {
        const double v = cube.get(m, c, r);
        if (v == 0.0) continue;
        rows[metric + " | " + path + " | " + std::to_string(r)] = v;
      }
    }
  }
  return rows;
}

TEST(TraceV3Migration, V2ArchiveRewrittenAsV3MatchesGoldenCube) {
  const TraceCollection original = wait_barrier_traces();

  const auto v3_dir = fs::temp_directory_path() / "msc_v3_migration";
  fs::remove_all(v3_dir);
  fs::create_directories(v3_dir);

  const TraceCollection from_v2 = tracing::read_collection(
      std::string(MSC_LEGACY_DIR) + "/wait_barrier.v2");
  tracing::write_collection(v3_dir.string(), from_v2);
  const TraceCollection from_v3 = tracing::read_collection(v3_dir.string());
  fs::remove_all(v3_dir);

  // Bit-identical traces through both generations.
  ASSERT_EQ(from_v3.num_ranks(), original.num_ranks());
  for (int r = 0; r < original.num_ranks(); ++r) {
    EXPECT_EQ(from_v2.ranks[static_cast<std::size_t>(r)],
              original.ranks[static_cast<std::size_t>(r)])
        << "v2 rank " << r;
    EXPECT_EQ(from_v3.ranks[static_cast<std::size_t>(r)],
              original.ranks[static_cast<std::size_t>(r)])
        << "v3 rank " << r;
  }

  // The migrated collection still reproduces the golden severity cells
  // bit-for-bit under the legacy detector selection.
  analysis::ReplayOptions opts;
  opts.patterns = {"late_sender",    "late_receiver", "early_reduce",
                   "late_broadcast", "wait_nxn",      "wait_barrier"};
  const auto res = analysis::analyze_serial(from_v3, opts);
  const RowMap got = cube_rows(res.cube);
  const RowMap want = golden_rows("wait-barrier-local");
  for (const auto& [key, v] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << "missing row " << key;
      continue;
    }
    EXPECT_EQ(it->second, v) << key;
  }
  for (const auto& [key, v] : got)
    EXPECT_TRUE(want.count(key)) << "unexpected row " << key << " = " << v;
}

}  // namespace
}  // namespace metascope
