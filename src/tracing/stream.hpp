// Reading v3 trace files: the one v3 decoder.
//
// TraceStream borrows a file's bytes and decodes its columnar payload
// lazily: the header, per-type counts, sync records and the complete
// nibble-packed type stream are validated up front (cheap — the type
// stream is half a byte per event), the column *frames* are walked and
// bounds-checked up front, but the column *payloads* stay encoded until
// next() asks for events. Per-column codec state lives in chunked
// cursors (common/column_codec.hpp), so the events do not depend on the
// window size: decode_local_trace reads a v3 file as one window that
// spans it, and analyze_streaming drains each rank's stream twice in
// bounded windows, once for its light pass and once, re-opened, for its
// window pass.
//
// Errors: magic/version/header corruption, implausible rank ids,
// count-sum mismatches, bad type nibbles, truncated column frames and
// bad double-column headers (mode, scale index, residual width) surface
// at open; corruption inside a column payload (bad XOR lead bytes,
// malformed varints, column length mismatches) when the window
// containing it decodes. Every error names the path, the rank and a
// byte offset counted from the start of the bytes the stream was given
// (for a blob inside a trace container, the archive layer and
// analysis::analyze_streaming move it to the container's start). Only
// v3 is read here; v1/v2 files are VersionMismatch (they interleave
// fields row-wise, so windowed decoding would save nothing —
// decode_local_trace reads them whole).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/column_codec.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing {

class TraceStream {
 public:
  /// Opens over borrowed bytes (they must outlive the stream — the
  /// archive layer passes a MappedFile's view). Validates everything up
  /// to but excluding the column payloads; throws taxonomy-typed Errors.
  TraceStream(const std::uint8_t* data, std::size_t size, std::string path);

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] std::uint64_t num_events() const { return nev_; }
  [[nodiscard]] const std::vector<OffsetRecord>& sync() const {
    return sync_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Send and Recv events in the stream (the header's per-type counts).
  [[nodiscard]] std::size_t sends() const { return send_peer_.n; }
  [[nodiscard]] std::size_t recvs() const { return recv_peer_.n; }

  /// Decodes the next up-to-`max_events` events, appending them to
  /// `out` (a vector of Event, any allocator), and returns how many (0
  /// at end of stream). Each column's frame contract is checked when
  /// the last event decodes.
  template <typename EventVec>
  std::size_t next(EventVec& out, std::size_t max_events) {
    const std::size_t k = std::min(max_events, remaining());
    if (k == 0) return 0;
    // The rows first, then the events, so the events the interleave
    // writes are the most recently touched memory.
    pull_window(k);
    const std::size_t at = out.size();
    out.resize(at + k);
    interleave(out.data() + at, k);
    return k;
  }

  [[nodiscard]] std::size_t decoded() const { return decoded_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(nev_) - decoded_;
  }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  using Frame = colcodec::ColumnFrame;

  /// Decodes the next k rows of every column into the row buffers.
  void pull_window(std::size_t k);
  /// Assembles those rows into default-constructed `out[0..k)`, filling
  /// in the fields each event's type carries.
  void interleave(Event* out, std::size_t k);

  /// Decodes every walked column whole, in file order, throwing the
  /// first error: what a failed frame walk may be the symptom of.
  void check_walked_columns() const;
  /// Re-throws with the path and rank attached; a Truncated error gets
  /// the canonical "truncated trace file" diagnosis (progress = events
  /// decoded so far).
  [[noreturn]] void rethrow(const Error& e, std::size_t events_done) const;
  void finish_window_cursors();

  const std::uint8_t* data_{nullptr};
  std::size_t size_{0};
  std::string path_;
  Rank rank_{kNoRank};
  std::uint64_t nev_{0};
  std::vector<OffsetRecord> sync_;
  const std::uint8_t* nibbles_{nullptr};

  // Column frames, in file order (zero-row columns stay empty).
  Frame time_, enter_region_;
  Frame send_peer_, send_tag_, send_bytes_, send_comm_;
  Frame recv_peer_, recv_tag_, recv_bytes_, recv_comm_;
  Frame coll_region_, coll_comm_, coll_root_;
  Frame coll_bytes_, coll_sent_, coll_recvd_;

  // Window cursors, one per column, and one row buffer each, reused
  // across next() calls: tiny windows mean many calls, and a fresh
  // vector per call would put a malloc/free pair per column on the
  // window pass's hot path.
  std::size_t decoded_{0};
  colcodec::DoubleColumnCursor c_time_, c_send_bytes_, c_recv_bytes_;
  colcodec::DoubleColumnCursor c_coll_bytes_, c_coll_sent_, c_coll_recvd_;
  colcodec::IntColumnCursor c_enter_region_;
  colcodec::IntColumnCursor c_send_peer_, c_send_tag_, c_send_comm_;
  colcodec::IntColumnCursor c_recv_peer_, c_recv_tag_, c_recv_comm_;
  colcodec::IntColumnCursor c_coll_region_, c_coll_comm_, c_coll_root_;
  std::vector<double> b_time_, b_send_bytes_, b_recv_bytes_;
  std::vector<double> b_coll_bytes_, b_coll_sent_, b_coll_recvd_;
  std::vector<std::int64_t> b_enter_region_;
  std::vector<std::int64_t> b_send_peer_, b_send_tag_, b_send_comm_;
  std::vector<std::int64_t> b_recv_peer_, b_recv_tag_, b_recv_comm_;
  std::vector<std::int64_t> b_coll_region_, b_coll_comm_, b_coll_root_;
};

/// Where one rank's trace blob lies on disk: a byte range of a trace
/// container (epilog_io.hpp). Errors decoding it name `path` and offsets
/// counted from the container's start.
struct TraceExtent {
  std::string path;
  std::uint64_t offset{0};
  std::uint64_t length{0};
};

/// A streamable experiment: the shared definitions plus where each
/// rank's blob lies. Produced by archive::ExperimentArchive::stream_source
/// (which validates every container index and blob header up front and,
/// in permissive mode, fills `quarantined`); consumed by
/// analysis::analyze_streaming.
struct StreamSource {
  /// Defs, flags and rank slots (event vectors stay empty).
  TraceCollection defs;
  /// Per-rank blob extent, indexed by rank.
  std::vector<TraceExtent> extents;
  /// Ranks whose files failed open-time validation under a permissive
  /// read: they stream zero events, and surviving ranks' events go
  /// through the rule tracing::prune_quarantined applies
  /// (tracing::Quarantine). Sorted ascending.
  std::vector<Rank> quarantined;
};

}  // namespace metascope::tracing
