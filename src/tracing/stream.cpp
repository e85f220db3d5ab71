#include "tracing/stream.hpp"

#include <algorithm>
#include <array>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "tracing/v3_blocks.hpp"

namespace metascope::tracing {

namespace {

using v3::kNumEventTypes;
using v3::type_at;
constexpr std::size_t kScanChunk = 4096;

void pull_doubles(colcodec::DoubleColumnCursor& cur, std::vector<double>& buf,
                  std::size_t k) {
  buf.resize(k);
  if (k != 0) cur.next(buf.data(), k);
}

}  // namespace

void TraceStream::rethrow(const Error& e, std::size_t events_done) const {
  if (e.code() != ErrorCode::Truncated) throw e;
  throw Error(ErrorCode::Truncated,
              "truncated trace file for rank " + std::to_string(rank_) +
                  ": payload ends after " + std::to_string(events_done) +
                  " of " + std::to_string(nev_) + " events (" +
                  e.base_message() + ")",
              e.context());
}

colcodec::IntColumnCursor TraceStream::int_cursor(const Col& c) const {
  return colcodec::IntColumnCursor(data_ + c.start, size_ - c.start, c.len,
                                   c.n, c.what,
                                   ErrorContext{path_, rank_, -1});
}

colcodec::DoubleColumnCursor TraceStream::double_cursor(const Col& c) const {
  return colcodec::DoubleColumnCursor(data_ + c.start, size_ - c.start,
                                      c.len, c.n, c.what,
                                      ErrorContext{path_, rank_, -1});
}

void TraceStream::pull(colcodec::IntColumnCursor& cur, const Col& c,
                       std::vector<std::int64_t>& buf, std::size_t k) const {
  buf.resize(k);
  if (k == 0) return;
  cur.next(buf.data(), k);
  v3::check_int32(buf.data(), k, c.what, ErrorContext{path_, rank_, -1});
}

TraceStream::TraceStream(const std::uint8_t* data, std::size_t size,
                         std::string path)
    : data_(data), size_(size), path_(std::move(path)) {
  Decoder d(data_, size_, ErrorContext{path_, -1, -1});
  d.expect_magic(v3::kTraceMagic, "trace file");
  // Streaming is a v3-only feature: the columnar layout is what makes a
  // windowed read possible at all.
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
    const v3::Header h = v3::get_header(d);
    nev_ = h.nev;
    sync_ = v3::get_sync(d, h.nsync);
    nibbles_ = v3::get_type_stream(d, h);

    // Walk the column frames without decoding their payloads: record
    // where each column lives, bounds-check every frame against the
    // file, and require the last one to end exactly at the file's end.
    const auto n_enter = static_cast<std::size_t>(h.counts[0]);
    const auto n_send = static_cast<std::size_t>(h.counts[2]);
    const auto n_recv = static_cast<std::size_t>(h.counts[3]);
    const auto n_coll = static_cast<std::size_t>(h.counts[4]);
    const auto walk = [&](Col& col, std::size_t n, const char* what) {
      col.n = n;
      col.what = what;
      if (n == 0) return;
      const std::size_t end = v3::begin_column(d, what);
      col.start = d.pos();
      col.len = end - col.start;
      (void)d.get_raw(col.len, what);
    };
    walk(time_, static_cast<std::size_t>(nev_), "time");
    walk(enter_region_, n_enter, "enter.region");
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

    // Window cursors. Construction reads each column's mode header (and
    // for residual-mode double columns, skip-scans to the residual
    // stream), so malformed codec headers surface now, with the same
    // codes the batch reader raises mid-decode.
    if (time_.n != 0) c_time_ = double_cursor(time_);
    if (n_enter != 0) c_enter_region_ = int_cursor(enter_region_);
    if (n_send != 0) {
      c_send_peer_ = int_cursor(send_peer_);
      c_send_tag_ = int_cursor(send_tag_);
      c_send_bytes_ = double_cursor(send_bytes_);
      c_send_comm_ = int_cursor(send_comm_);
    }
    if (n_recv != 0) {
      c_recv_peer_ = int_cursor(recv_peer_);
      c_recv_tag_ = int_cursor(recv_tag_);
      c_recv_bytes_ = double_cursor(recv_bytes_);
      c_recv_comm_ = int_cursor(recv_comm_);
    }
    if (n_coll != 0) {
      c_coll_region_ = int_cursor(coll_region_);
      c_coll_comm_ = int_cursor(coll_comm_);
      c_coll_root_ = int_cursor(coll_root_);
      c_coll_bytes_ = double_cursor(coll_bytes_);
      c_coll_sent_ = double_cursor(coll_sent_);
      c_coll_recvd_ = double_cursor(coll_recvd_);
    }
  } catch (const Error& e) {
    rethrow(e, 0);
  }
}

void TraceStream::scan_light(const std::function<void(const Event&)>& cb) const {
  auto time = double_cursor(time_);
  auto enter_region = int_cursor(enter_region_);
  auto send_peer = int_cursor(send_peer_);
  auto recv_peer = int_cursor(recv_peer_);
  auto coll_region = int_cursor(coll_region_);
  auto coll_comm = int_cursor(coll_comm_);

  std::vector<double> t;
  std::vector<std::int64_t> er, sp, rp, cr, cc;
  std::size_t done = 0;
  try {
    while (done < nev_) {
      const std::size_t k =
          std::min(kScanChunk, static_cast<std::size_t>(nev_) - done);
      std::array<std::size_t, kNumEventTypes> cnt{};
      for (std::size_t i = 0; i < k; ++i)
        ++cnt[static_cast<std::size_t>(type_at(nibbles_, done + i))];
      pull_doubles(time, t, k);
      pull(enter_region, enter_region_, er, cnt[0]);
      pull(send_peer, send_peer_, sp, cnt[2]);
      pull(recv_peer, recv_peer_, rp, cnt[3]);
      pull(coll_region, coll_region_, cr, cnt[4]);
      pull(coll_comm, coll_comm_, cc, cnt[4]);
      std::size_t ie = 0, is = 0, ir = 0, ic = 0;
      for (std::size_t i = 0; i < k; ++i) {
        Event ev;
        ev.type = type_at(nibbles_, done + i);
        ev.time = t[i];
        switch (ev.type) {
          case EventType::Enter:
            ev.region = RegionId{static_cast<int>(er[ie++])};
            break;
          case EventType::Exit:
            break;
          case EventType::Send:
            ev.peer = static_cast<Rank>(sp[is++]);
            break;
          case EventType::Recv:
            ev.peer = static_cast<Rank>(rp[ir++]);
            break;
          case EventType::CollExit:
            ev.region = RegionId{static_cast<int>(cr[ic])};
            ev.comm = CommId{static_cast<int>(cc[ic])};
            ++ic;
            break;
        }
        cb(ev);
      }
      done += k;
    }
    if (nev_ != 0) {
      time.finish();
      if (enter_region_.n != 0) enter_region.finish();
      if (send_peer_.n != 0) send_peer.finish();
      if (recv_peer_.n != 0) recv_peer.finish();
      if (coll_region_.n != 0) {
        coll_region.finish();
        coll_comm.finish();
      }
    }
  } catch (const Error& e) {
    rethrow(e, done);
  }
}

void TraceStream::finish_window_cursors() {
  if (time_.n != 0) c_time_.finish();
  if (enter_region_.n != 0) c_enter_region_.finish();
  if (send_peer_.n != 0) {
    c_send_peer_.finish();
    c_send_tag_.finish();
    c_send_bytes_.finish();
    c_send_comm_.finish();
  }
  if (recv_peer_.n != 0) {
    c_recv_peer_.finish();
    c_recv_tag_.finish();
    c_recv_bytes_.finish();
    c_recv_comm_.finish();
  }
  if (coll_region_.n != 0) {
    c_coll_region_.finish();
    c_coll_comm_.finish();
    c_coll_root_.finish();
    c_coll_bytes_.finish();
    c_coll_sent_.finish();
    c_coll_recvd_.finish();
  }
}

std::size_t TraceStream::next(std::vector<Event>& out,
                              std::size_t max_events) {
  const std::size_t k = std::min(max_events, remaining());
  if (k == 0) return 0;
  try {
    const std::size_t base = decoded_;
    std::array<std::size_t, kNumEventTypes> cnt{};
    for (std::size_t i = 0; i < k; ++i)
      ++cnt[static_cast<std::size_t>(type_at(nibbles_, base + i))];

    // Per-type field buffers are pulled in column order; the interleave
    // below walks them with independent indices exactly like the batch
    // reader's reassembly loop.
    pull_doubles(c_time_, b_time_, k);
    pull(c_enter_region_, enter_region_, b_enter_region_, cnt[0]);
    pull(c_send_peer_, send_peer_, b_send_peer_, cnt[2]);
    pull(c_send_tag_, send_tag_, b_send_tag_, cnt[2]);
    pull_doubles(c_send_bytes_, b_send_bytes_, cnt[2]);
    pull(c_send_comm_, send_comm_, b_send_comm_, cnt[2]);
    pull(c_recv_peer_, recv_peer_, b_recv_peer_, cnt[3]);
    pull(c_recv_tag_, recv_tag_, b_recv_tag_, cnt[3]);
    pull_doubles(c_recv_bytes_, b_recv_bytes_, cnt[3]);
    pull(c_recv_comm_, recv_comm_, b_recv_comm_, cnt[3]);
    pull(c_coll_region_, coll_region_, b_coll_region_, cnt[4]);
    pull(c_coll_comm_, coll_comm_, b_coll_comm_, cnt[4]);
    pull(c_coll_root_, coll_root_, b_coll_root_, cnt[4]);
    pull_doubles(c_coll_bytes_, b_coll_bytes_, cnt[4]);
    pull_doubles(c_coll_sent_, b_coll_sent_, cnt[4]);
    pull_doubles(c_coll_recvd_, b_coll_recvd_, cnt[4]);

    out.reserve(out.size() + k);
    std::size_t ie = 0, is = 0, ir = 0, ic = 0;
    for (std::size_t i = 0; i < k; ++i) {
      Event e;
      e.type = type_at(nibbles_, base + i);
      e.time = b_time_[i];
      switch (e.type) {
        case EventType::Enter:
          e.region = RegionId{static_cast<int>(b_enter_region_[ie++])};
          break;
        case EventType::Exit:
          break;
        case EventType::Send:
          e.peer = static_cast<Rank>(b_send_peer_[is]);
          e.tag = static_cast<int>(b_send_tag_[is]);
          e.bytes = b_send_bytes_[is];
          e.comm = CommId{static_cast<int>(b_send_comm_[is])};
          ++is;
          break;
        case EventType::Recv:
          e.peer = static_cast<Rank>(b_recv_peer_[ir]);
          e.tag = static_cast<int>(b_recv_tag_[ir]);
          e.bytes = b_recv_bytes_[ir];
          e.comm = CommId{static_cast<int>(b_recv_comm_[ir])};
          ++ir;
          break;
        case EventType::CollExit:
          e.region = RegionId{static_cast<int>(b_coll_region_[ic])};
          e.comm = CommId{static_cast<int>(b_coll_comm_[ic])};
          e.root = static_cast<Rank>(b_coll_root_[ic]);
          e.bytes = b_coll_bytes_[ic];
          e.sent_bytes = b_coll_sent_[ic];
          e.recvd_bytes = b_coll_recvd_[ic];
          ++ic;
          break;
      }
      out.push_back(e);
    }
    decoded_ += k;
    if (decoded_ == static_cast<std::size_t>(nev_)) finish_window_cursors();
  } catch (const Error& e) {
    rethrow(e, decoded_);
  }
  return k;
}

}  // namespace metascope::tracing
