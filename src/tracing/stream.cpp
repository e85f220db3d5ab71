#include "tracing/stream.hpp"

#include <algorithm>
#include <array>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "tracing/v3_blocks.hpp"

namespace metascope::tracing {

namespace {

using colcodec::ColumnFrame;
using colcodec::DoubleColumnCursor;
using colcodec::IntColumnCursor;
using v3::kNumEventTypes;
using v3::type_at;

// Cheapest possible encodings, used to validate header counts against
// the bytes actually present before reserving anything: a sync record
// contributes at least one byte to the phase column, an event at least
// one byte to the time column.
constexpr std::size_t kMinSyncRecordBytes = 1;
constexpr std::size_t kMinEventBytes = 1;

/// The header fields after the rank id.
struct Header {
  std::uint64_t nsync{0};
  std::uint64_t nev{0};
  /// Events per EventType; Corrupt unless they sum to nev.
  std::array<std::uint64_t, kNumEventTypes> counts{};
};

Header get_header(Decoder& d) {
  Header h;
  h.nsync = d.get_count("sync records", kMinSyncRecordBytes);
  h.nev = d.get_count("events", kMinEventBytes);
  std::uint64_t sum = 0;
  for (std::uint64_t& c : h.counts) {
    c = d.get_varint();
    sum += c;
  }
  if (sum != h.nev)
    d.fail(ErrorCode::Corrupt,
           "per-type event counts sum to " + std::to_string(sum) +
               " but the header declares " + std::to_string(h.nev) +
               " events");
  return h;
}

// Every nibble must name a known event type, the per-type tallies must
// reproduce the header's counts, and an odd stream's trailing high
// nibble must be zero. Returns the packed bytes (borrowed).
const std::uint8_t* get_type_stream(Decoder& d, const Header& h) {
  const auto nbytes = static_cast<std::size_t>((h.nev + 1) / 2);
  const std::uint8_t* nibbles = d.get_raw(nbytes, "event type stream");
  std::array<std::uint64_t, kNumEventTypes> seen{};
  for (std::uint64_t i = 0; i < h.nev; ++i) {
    const auto ty =
        static_cast<std::size_t>(type_at(nibbles, static_cast<std::size_t>(i)));
    if (ty >= kNumEventTypes)
      d.fail(ErrorCode::Corrupt, "corrupt trace: unknown event type " +
                                     std::to_string(ty) +
                                     " in type stream at event " +
                                     std::to_string(i));
    ++seen[ty];
  }
  if (h.nev % 2 != 0 && (nibbles[nbytes - 1] >> 4) != 0)
    d.fail(ErrorCode::Corrupt,
           "corrupt trace: nonzero padding nibble in type stream");
  for (std::size_t ty = 0; ty < kNumEventTypes; ++ty)
    if (seen[ty] != h.counts[ty])
      d.fail(ErrorCode::Corrupt,
             "corrupt trace: type stream has " + std::to_string(seen[ty]) +
                 " events of type " + std::to_string(ty) +
                 " but the header declares " + std::to_string(h.counts[ty]));
  return nibbles;
}

/// Reads a column frame's byte-length prefix and steps over its
/// payload. A zero-row column is omitted from the file (the header
/// counts make that unambiguous); its frame stays empty. Truncated if
/// the declared length overruns the file.
ColumnFrame skip_column(Decoder& d, std::size_t n, const char* what) {
  ColumnFrame f;
  f.n = n;
  f.what = what;
  if (n == 0) return f;
  const std::uint64_t len = d.get_varint();
  if (len > d.remaining())
    d.fail(ErrorCode::Truncated,
           std::string("truncated ") + what + " column: frame declares " +
               std::to_string(len) + " bytes but only " +
               std::to_string(d.remaining()) + " remain");
  f.start = d.pos();
  f.len = static_cast<std::size_t>(len);
  (void)d.get_raw(f.len, what);
  return f;
}

/// The next k rows of a double column, decoded into `buf`.
const double* pull(DoubleColumnCursor& cur, std::vector<double>& buf,
                   std::size_t k) {
  buf.resize(k);
  cur.next(buf.data(), k);
  return buf.data();
}

/// The next k rows of an id column, decoded into `buf`, each checked
/// against the 32-bit field it decodes into.
const std::int64_t* pull(IntColumnCursor& cur, const ColumnFrame& f,
                         std::vector<std::int64_t>& buf, std::size_t k) {
  buf.resize(k);
  cur.next(buf.data(), k);
  v3::check_int32(buf.data(), k, f.what, {});
  return buf.data();
}

/// A whole column: every row, then its frame contract.
void read_column(const std::uint8_t* file, std::size_t size,
                 const ColumnFrame& f, std::vector<double>& out) {
  DoubleColumnCursor cur(file, size, f);
  pull(cur, out, f.n);
  cur.finish();
}

void read_column(const std::uint8_t* file, std::size_t size,
                 const ColumnFrame& f, std::vector<std::int64_t>& out) {
  IntColumnCursor cur(file, size, f);
  pull(cur, f, out, f.n);
  cur.finish();
}

/// The five sync-record columns in field order (phase, ref_rank,
/// local_mid, offset, error_bound), each decoded as soon as it is
/// framed.
std::vector<OffsetRecord> get_sync(Decoder& d, const std::uint8_t* file,
                                   std::size_t size, std::size_t n) {
  std::vector<OffsetRecord> sync(n);
  std::vector<std::int64_t> ids;
  std::vector<double> vals;
  read_column(file, size, skip_column(d, n, "sync.phase"), ids);
  for (std::size_t i = 0; i < n; ++i) sync[i].phase = static_cast<int>(ids[i]);
  read_column(file, size, skip_column(d, n, "sync.ref_rank"), ids);
  for (std::size_t i = 0; i < n; ++i)
    sync[i].ref_rank = static_cast<Rank>(ids[i]);
  read_column(file, size, skip_column(d, n, "sync.local_mid"), vals);
  for (std::size_t i = 0; i < n; ++i) sync[i].local_mid = vals[i];
  read_column(file, size, skip_column(d, n, "sync.offset"), vals);
  for (std::size_t i = 0; i < n; ++i) sync[i].offset = vals[i];
  read_column(file, size, skip_column(d, n, "sync.error_bound"), vals);
  for (std::size_t i = 0; i < n; ++i) sync[i].error_bound = vals[i];
  return sync;
}

}  // namespace

void TraceStream::rethrow(const Error& e, std::size_t events_done) const {
  const Error located = e.with_context(ErrorContext{path_, rank_, -1});
  if (e.code() != ErrorCode::Truncated) throw located;
  throw Error(ErrorCode::Truncated,
              "truncated trace file for rank " + std::to_string(rank_) +
                  ": payload ends after " + std::to_string(events_done) +
                  " of " + std::to_string(nev_) + " events (" +
                  e.base_message() + ")",
              located.context());
}

TraceStream::TraceStream(const std::uint8_t* data, std::size_t size,
                         std::string path)
    : data_(data), size_(size), path_(std::move(path)) {
  Decoder d(data_, size_, path_);
  d.expect_magic(v3::kTraceMagic, "trace file");
  d.expect_version_in(kTraceFormatVersion, kTraceFormatVersion,
                      "streamed trace file");
  try {
    const std::int64_t rank = d.get_svarint();
    if (rank < -1 || rank > static_cast<std::int64_t>(kMaxRanksPerArchive))
      d.fail(ErrorCode::Corrupt,
             "implausible rank id " + std::to_string(rank));
    rank_ = static_cast<Rank>(rank);
    d.set_rank(static_cast<int>(rank));

    // Sync records are tiny (a handful per rank) — decode them eagerly.
    // The whole type stream is validated up front: it is the per-event
    // decode schedule, so a bad nibble anywhere must surface before any
    // window is trusted.
    const Header h = get_header(d);
    nev_ = h.nev;
    sync_ = get_sync(d, data_, size_, static_cast<std::size_t>(h.nsync));
    nibbles_ = get_type_stream(d, h);

    // Walk the column frames without decoding their payloads: record
    // where each column lives, bounds-check every frame against the
    // file, and require the last one to end exactly at the file's end.
    const auto walk = [&](Frame& f, std::uint64_t n, const char* what) {
      f = skip_column(d, static_cast<std::size_t>(n), what);
    };
    const std::uint64_t n_send = h.counts[2], n_recv = h.counts[3],
                        n_coll = h.counts[4];
    try {
      walk(time_, nev_, "time");
      walk(enter_region_, h.counts[0], "enter.region");
      walk(send_peer_, n_send, "send.peer");
      walk(send_tag_, n_send, "send.tag");
      walk(send_bytes_, n_send, "send.bytes");
      walk(send_comm_, n_send, "send.comm");
      walk(recv_peer_, n_recv, "recv.peer");
      walk(recv_tag_, n_recv, "recv.tag");
      walk(recv_bytes_, n_recv, "recv.bytes");
      walk(recv_comm_, n_recv, "recv.comm");
      walk(coll_region_, n_coll, "collexit.region");
      walk(coll_comm_, n_coll, "collexit.comm");
      walk(coll_root_, n_coll, "collexit.root");
      walk(coll_bytes_, n_coll, "collexit.bytes");
      walk(coll_sent_, n_coll, "collexit.sent");
      walk(coll_recvd_, n_coll, "collexit.recvd");
      d.require_end("trace file");
    } catch (const Error&) {
      check_walked_columns();
      throw;
    }

    // Construction reads each double column's mode header, so a
    // malformed one surfaces now.
    c_time_ = DoubleColumnCursor(data_, size_, time_);
    c_enter_region_ = IntColumnCursor(data_, size_, enter_region_);
    c_send_peer_ = IntColumnCursor(data_, size_, send_peer_);
    c_send_tag_ = IntColumnCursor(data_, size_, send_tag_);
    c_send_bytes_ = DoubleColumnCursor(data_, size_, send_bytes_);
    c_send_comm_ = IntColumnCursor(data_, size_, send_comm_);
    c_recv_peer_ = IntColumnCursor(data_, size_, recv_peer_);
    c_recv_tag_ = IntColumnCursor(data_, size_, recv_tag_);
    c_recv_bytes_ = DoubleColumnCursor(data_, size_, recv_bytes_);
    c_recv_comm_ = IntColumnCursor(data_, size_, recv_comm_);
    c_coll_region_ = IntColumnCursor(data_, size_, coll_region_);
    c_coll_comm_ = IntColumnCursor(data_, size_, coll_comm_);
    c_coll_root_ = IntColumnCursor(data_, size_, coll_root_);
    c_coll_bytes_ = DoubleColumnCursor(data_, size_, coll_bytes_);
    c_coll_sent_ = DoubleColumnCursor(data_, size_, coll_sent_);
    c_coll_recvd_ = DoubleColumnCursor(data_, size_, coll_recvd_);
  } catch (const Error& e) {
    rethrow(e, 0);
  }
}

void TraceStream::check_walked_columns() const {
  // A frame that overruns the file, or bytes left after the last one,
  // can be the symptom of an earlier column whose codec disagrees with
  // its frame (the next length prefix is then read from the wrong
  // byte). Name that column instead, as a column-by-column reader
  // would: decode what was walked, in file order. Frames not walked
  // yet are empty and decode as nothing.
  std::vector<double> vals;
  std::vector<std::int64_t> ids;
  read_column(data_, size_, time_, vals);
  read_column(data_, size_, enter_region_, ids);
  read_column(data_, size_, send_peer_, ids);
  read_column(data_, size_, send_tag_, ids);
  read_column(data_, size_, send_bytes_, vals);
  read_column(data_, size_, send_comm_, ids);
  read_column(data_, size_, recv_peer_, ids);
  read_column(data_, size_, recv_tag_, ids);
  read_column(data_, size_, recv_bytes_, vals);
  read_column(data_, size_, recv_comm_, ids);
  read_column(data_, size_, coll_region_, ids);
  read_column(data_, size_, coll_comm_, ids);
  read_column(data_, size_, coll_root_, ids);
  read_column(data_, size_, coll_bytes_, vals);
  read_column(data_, size_, coll_sent_, vals);
  read_column(data_, size_, coll_recvd_, vals);
}

void TraceStream::finish_window_cursors() {
  c_time_.finish();
  c_enter_region_.finish();
  c_send_peer_.finish();
  c_send_tag_.finish();
  c_send_bytes_.finish();
  c_send_comm_.finish();
  c_recv_peer_.finish();
  c_recv_tag_.finish();
  c_recv_bytes_.finish();
  c_recv_comm_.finish();
  c_coll_region_.finish();
  c_coll_comm_.finish();
  c_coll_root_.finish();
  c_coll_bytes_.finish();
  c_coll_sent_.finish();
  c_coll_recvd_.finish();
}

void TraceStream::pull_window(std::size_t k) {
  try {
    // Rows per type in this window; a window spanning the file takes
    // every row, as the header counted them.
    std::array<std::size_t, kNumEventTypes> cnt{
        enter_region_.n, 0, send_peer_.n, recv_peer_.n, coll_region_.n};
    if (k != nev_) {
      cnt = {};
      for (std::size_t i = 0; i < k; ++i)
        ++cnt[static_cast<std::size_t>(type_at(nibbles_, decoded_ + i))];
    }
    // In file order.
    pull(c_time_, b_time_, k);
    pull(c_enter_region_, enter_region_, b_enter_region_, cnt[0]);
    pull(c_send_peer_, send_peer_, b_send_peer_, cnt[2]);
    pull(c_send_tag_, send_tag_, b_send_tag_, cnt[2]);
    pull(c_send_bytes_, b_send_bytes_, cnt[2]);
    pull(c_send_comm_, send_comm_, b_send_comm_, cnt[2]);
    pull(c_recv_peer_, recv_peer_, b_recv_peer_, cnt[3]);
    pull(c_recv_tag_, recv_tag_, b_recv_tag_, cnt[3]);
    pull(c_recv_bytes_, b_recv_bytes_, cnt[3]);
    pull(c_recv_comm_, recv_comm_, b_recv_comm_, cnt[3]);
    pull(c_coll_region_, coll_region_, b_coll_region_, cnt[4]);
    pull(c_coll_comm_, coll_comm_, b_coll_comm_, cnt[4]);
    pull(c_coll_root_, coll_root_, b_coll_root_, cnt[4]);
    pull(c_coll_bytes_, b_coll_bytes_, cnt[4]);
    pull(c_coll_sent_, b_coll_sent_, cnt[4]);
    pull(c_coll_recvd_, b_coll_recvd_, cnt[4]);
    if (decoded_ + k == nev_) finish_window_cursors();
  } catch (const Error& e) {
    rethrow(e, decoded_);
  }
}

void TraceStream::interleave(Event* out, std::size_t k) {
  // One running row index per event type; the ids passed the int32
  // check, so the narrowing casts are exact.
  const double* time = b_time_.data();
  const std::int64_t* enter_region = b_enter_region_.data();
  const std::int64_t* send_peer = b_send_peer_.data();
  const std::int64_t* send_tag = b_send_tag_.data();
  const double* send_bytes = b_send_bytes_.data();
  const std::int64_t* send_comm = b_send_comm_.data();
  const std::int64_t* recv_peer = b_recv_peer_.data();
  const std::int64_t* recv_tag = b_recv_tag_.data();
  const double* recv_bytes = b_recv_bytes_.data();
  const std::int64_t* recv_comm = b_recv_comm_.data();
  const std::int64_t* coll_region = b_coll_region_.data();
  const std::int64_t* coll_comm = b_coll_comm_.data();
  const std::int64_t* coll_root = b_coll_root_.data();
  const double* coll_bytes = b_coll_bytes_.data();
  const double* coll_sent = b_coll_sent_.data();
  const double* coll_recvd = b_coll_recvd_.data();
  const std::uint8_t* nibbles = nibbles_;
  const std::size_t base = decoded_;
  std::size_t ie = 0, is = 0, ir = 0, ic = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Event& e = out[i];
    e.type = type_at(nibbles, base + i);
    e.time = time[i];
    switch (e.type) {
      case EventType::Enter:
        e.region = RegionId{static_cast<int>(enter_region[ie++])};
        break;
      case EventType::Exit:
        break;
      case EventType::Send:
        e.peer = static_cast<Rank>(send_peer[is]);
        e.tag = static_cast<int>(send_tag[is]);
        e.bytes = send_bytes[is];
        e.comm = CommId{static_cast<int>(send_comm[is])};
        ++is;
        break;
      case EventType::Recv:
        e.peer = static_cast<Rank>(recv_peer[ir]);
        e.tag = static_cast<int>(recv_tag[ir]);
        e.bytes = recv_bytes[ir];
        e.comm = CommId{static_cast<int>(recv_comm[ir])};
        ++ir;
        break;
      case EventType::CollExit:
        e.region = RegionId{static_cast<int>(coll_region[ic])};
        e.comm = CommId{static_cast<int>(coll_comm[ic])};
        e.root = static_cast<Rank>(coll_root[ic]);
        e.bytes = coll_bytes[ic];
        e.sent_bytes = coll_sent[ic];
        e.recvd_bytes = coll_recvd[ic];
        ++ic;
        break;
    }
  }
  decoded_ += k;
}

}  // namespace metascope::tracing
