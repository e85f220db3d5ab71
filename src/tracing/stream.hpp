// Windowed (out-of-core) reading of v3 trace files.
//
// decode_local_trace materializes a rank's whole event vector before
// the analyzer sees a single event, so peak memory grows linearly with
// trace length. TraceStream keeps the file mapped and decodes the
// columnar payload lazily instead: the header, per-type counts, sync
// records and the complete nibble-packed type stream are validated up
// front (cheap — the type stream is half a byte per event), the column
// *frames* are walked and bounds-checked up front, but the column
// *payloads* stay encoded until the replay asks for the next window of
// events. Per-column codec state lives in chunked cursors
// (common/column_codec.hpp), so any window size decodes bit-identically
// to the batch reader.
//
// Error taxonomy parity: every failure mode of decode_local_trace
// surfaces here with the same ErrorCode — magic/version/header
// corruption, implausible rank ids, count-sum mismatches, bad type
// nibbles and truncated column frames at open; codec-level corruption
// (bad mode/lead/scale/width bytes, column length mismatches) when the
// window containing it decodes. Streaming reads v3 only; v1/v2 files
// are VersionMismatch (they interleave fields row-wise, so windowed
// decoding would save nothing — materialize them instead).
#pragma once

#include <cstdint>
#include <functional>
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
  /// to but excluding the column payloads; throws taxonomy-typed Errors
  /// exactly like decode_local_trace.
  TraceStream(const std::uint8_t* data, std::size_t size, std::string path);

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] std::uint64_t num_events() const { return nev_; }
  [[nodiscard]] const std::vector<OffsetRecord>& sync() const {
    return sync_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// One cheap pass over the columns the structural walk reads (fresh
  /// cursors; does not move the window position): each event carries
  /// its type, time, region, comm and peer — tag, root and byte counts
  /// stay at their defaults. Used by the streaming prepare pass.
  void scan_light(const std::function<void(const Event&)>& cb) const;

  /// Decodes the next up-to-`max_events` events, appending fully
  /// populated Events to `out`. Returns how many were produced (0 at
  /// end of stream). The per-column frame contracts are re-checked
  /// when the last event decodes, mirroring the batch reader.
  std::size_t next(std::vector<Event>& out, std::size_t max_events);

  [[nodiscard]] std::size_t decoded() const { return decoded_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(nev_) - decoded_;
  }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  struct Col {
    std::size_t start{0};  ///< payload offset into the file
    std::size_t len{0};    ///< framed byte length
    std::size_t n{0};      ///< row count
    const char* what{""};  ///< column name, for diagnostics
  };

  [[nodiscard]] colcodec::IntColumnCursor int_cursor(const Col& c) const;
  [[nodiscard]] colcodec::DoubleColumnCursor double_cursor(
      const Col& c) const;
  /// Decodes the next k rows of an integer column into `buf`, each
  /// checked against int32 like the batch reader's columns.
  void pull(colcodec::IntColumnCursor& cur, const Col& c,
            std::vector<std::int64_t>& buf, std::size_t k) const;
  /// Re-throws a Truncated error under the canonical "truncated trace
  /// file" diagnosis (progress = events decoded so far); other codes
  /// pass through.
  [[noreturn]] void rethrow(const Error& e, std::size_t events_done) const;
  void finish_window_cursors();

  const std::uint8_t* data_{nullptr};
  std::size_t size_{0};
  std::string path_;
  Rank rank_{kNoRank};
  std::uint64_t nev_{0};
  std::vector<OffsetRecord> sync_;
  const std::uint8_t* nibbles_{nullptr};

  // Column frame directory, in file order.
  Col time_, enter_region_;
  Col send_peer_, send_tag_, send_bytes_, send_comm_;
  Col recv_peer_, recv_tag_, recv_bytes_, recv_comm_;
  Col coll_region_, coll_comm_, coll_root_;
  Col coll_bytes_, coll_sent_, coll_recvd_;

  // Window cursors (one per non-empty column) + reusable chunk buffers.
  std::size_t decoded_{0};
  colcodec::DoubleColumnCursor c_time_, c_send_bytes_, c_recv_bytes_;
  colcodec::DoubleColumnCursor c_coll_bytes_, c_coll_sent_, c_coll_recvd_;
  colcodec::IntColumnCursor c_enter_region_;
  colcodec::IntColumnCursor c_send_peer_, c_send_tag_, c_send_comm_;
  colcodec::IntColumnCursor c_recv_peer_, c_recv_tag_, c_recv_comm_;
  colcodec::IntColumnCursor c_coll_region_, c_coll_comm_, c_coll_root_;
  // One scratch buffer per column, reused across next() calls: tiny
  // windows mean many calls, and a fresh vector per call would put a
  // malloc/free pair per column on the replay hot path.
  std::vector<double> b_time_, b_send_bytes_, b_recv_bytes_;
  std::vector<double> b_coll_bytes_, b_coll_sent_, b_coll_recvd_;
  std::vector<std::int64_t> b_enter_region_;
  std::vector<std::int64_t> b_send_peer_, b_send_tag_, b_send_comm_;
  std::vector<std::int64_t> b_recv_peer_, b_recv_tag_, b_recv_comm_;
  std::vector<std::int64_t> b_coll_region_, b_coll_comm_, b_coll_root_;
};

/// A streamable experiment: the shared definitions plus each rank's
/// trace file path. Produced by archive::ExperimentArchive::stream_source
/// (which performs open-time validation and, in permissive mode, fills
/// `quarantined`); consumed by analysis::analyze_streaming.
struct StreamSource {
  /// Defs, flags and rank slots (event vectors stay empty).
  TraceCollection defs;
  /// Per-rank trace file path, indexed by rank.
  std::vector<std::string> paths;
  bool use_mmap{true};
  /// Ranks whose files failed open-time validation under a permissive
  /// read: they stream zero events, and surviving ranks' events go
  /// through the rule tracing::prune_quarantined applies
  /// (tracing::Quarantine). Sorted ascending.
  std::vector<Rank> quarantined;
};

}  // namespace metascope::tracing
