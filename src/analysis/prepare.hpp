// Pre-analysis pass ("definition unification"): builds the global call
// tree, annotates every event with its call path and enclosing-operation
// times, and accumulates per-call-path exclusive times. Call-path ids
// are assigned in a serial first pass (ranks in order, events in order)
// so that ids — and therefore cubes — are bit-identical between the
// serial and the parallel analysis for any worker count; the heavy
// per-event annotation then fans out one task per rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// Per-event annotations for one rank, index-aligned with the trace's
/// event vector.
struct EventAnnotations {
  /// Call path the event belongs to (for Enter: the entered path).
  std::vector<CallPathId> cnode;
  /// For Send/Recv/CollExit events: timestamp of the enclosing MPI call's
  /// Enter. Zero for other events.
  std::vector<double> op_enter;
  /// For Send/Recv/CollExit events: timestamp of the enclosing MPI call's
  /// Exit (== CollExit time for collectives).
  std::vector<double> op_exit;
  /// Indices of the communication events (Send/Recv/CollExit), in trace
  /// order. Replay loops iterate this instead of the full event vector,
  /// skipping Enter/Exit entirely.
  std::vector<std::uint32_t> op_events;
};

/// One (call path, seconds) exclusive-time contribution.
struct ExclusiveTime {
  CallPathId cnode;
  double seconds{0.0};
};

/// The communication layout the replay runs on, fixed before it starts:
/// both prepares see every Send, Recv and CollExit, so the replay indexes
/// dense arrays instead of hashing message envelopes.
///
///  - One message channel per communicating (sender, receiver) pair,
///    numbered sender-major: sender s owns channels
///    [pair_begin[s], pair_begin[s+1]), whose receivers are
///    pair_dst[...] in ascending order.
///  - One record slot per Recv: rank r's k-th receive fills slot
///    recv_begin[r] + k, so the slots come out in canonical
///    (receiver, receive position) order.
///  - One member slot per (collective instance, member): the seq-th
///    instance on communicator c occupies |c| slots from
///    member_begin[c] + seq * |c|, one per member in ascending rank
///    order (comm_ranks[c]); its instance index is instance_begin[c] +
///    seq.
struct CommTables {
  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);

  std::vector<std::size_t> pair_begin;  ///< ranks + 1 entries
  std::vector<Rank> pair_dst;
  std::vector<std::size_t> recv_begin;      ///< ranks + 1 entries
  std::vector<std::size_t> member_begin;    ///< comms + 1 entries
  std::vector<std::size_t> instance_begin;  ///< comms + 1 entries
  std::vector<std::vector<Rank>> comm_ranks;

  /// Channel of the pair (src, dst), or kNoChannel when src never sends
  /// to dst (or either rank is out of range).
  [[nodiscard]] std::size_t channel(Rank src, Rank dst) const;
  [[nodiscard]] std::size_t num_channels() const { return pair_dst.size(); }
  [[nodiscard]] std::size_t num_records() const { return recv_begin.back(); }
  /// Member slot of `rank` in the seq-th instance on `comm`. The rank
  /// must be a member (build_comm_tables guarantees it for every
  /// recorded CollExit).
  [[nodiscard]] std::size_t member_slot(int comm, int seq, Rank rank) const;
};

/// What one rank's trace contributes to the CommTables, as RankWalk
/// counts it.
struct RankComm {
  std::vector<Rank> send_peers;  ///< destination of every Send, any order
  std::size_t recvs{0};
  std::vector<int> colls;  ///< CollExit count per communicator id
};

/// The structural walk of one rank, shared by both prepares: prepare()
/// feeds it the rank's event vector, analyze_streaming the events
/// TraceStream::scan_light decodes (after the quarantine rule, so event
/// indices match the pruned collection's). Fed every event in order, it
/// assigns call-path ids — get_or_add at every Enter; walking the ranks
/// in ascending order makes the ids identical for every analyzer and
/// worker count — runs every structural check, and counts the rank's
/// share of the CommTables.
class RankWalk {
 public:
  /// `rc` is reset to zero counts over `num_comms` communicators.
  RankWalk(Rank rank, std::size_t num_comms, report::CallTree& calls,
           RankComm& rc);

  /// Walks the next event and returns its call path (for an Enter, the
  /// entered one). Throws Error ("malformed trace: rank R event I: ...")
  /// on an Exit without Enter, a negative region duration, a collective
  /// on an unknown communicator, or a message event outside any region.
  CallPathId step(const tracing::Event& e);

  /// Ends the rank; throws Error on an unclosed region. Returns the
  /// number of events walked.
  std::uint32_t finish() const;

 private:
  struct Frame {
    CallPathId cnode;
    double enter_time;
  };
  [[noreturn]] void fail(const char* what) const;

  Rank rank_;
  report::CallTree& calls_;
  RankComm& rc_;
  std::vector<Frame> stack_;
  std::uint32_t index_{0};
};

/// Builds the tables from every rank's contribution (`ranks` is indexed
/// by rank; its send_peers are sorted in place on up to `max_workers`
/// threads) and validates collective completeness: every member of a
/// communicator must record the same number of collectives on it, and
/// no other rank may record any. Throws Error otherwise, so no replay
/// task can wait on an instance that never completes.
CommTables build_comm_tables(const tracing::TraceDefs& defs,
                             std::vector<RankComm>& ranks,
                             std::size_t max_workers);

struct PreparedTrace {
  const tracing::TraceCollection* tc{nullptr};
  report::CallTree calls;
  /// RegionId -> {category, collective kind, blocking-send?}, computed
  /// once here so replay hot paths never classify by region name.
  RegionClassTable region_table;
  std::vector<EventAnnotations> per_rank;
  /// Exclusive time per call path, per rank (summed over occurrences).
  std::vector<std::vector<ExclusiveTime>> excl_time;
  /// Per-rank span (last event time - first event time).
  std::vector<double> rank_span;
  CommTables comm;
};

/// Annotates all ranks. Throws Error on malformed traces (unbalanced
/// Enter/Exit, events outside any region) and on incomplete collective
/// instances (a communicator member missing from a collective), so both
/// analyzers fail fast before any replay starts. The per-rank annotation
/// pass runs on up to `max_workers` threads (0 = hardware concurrency);
/// results are identical for every worker count.
PreparedTrace prepare(const tracing::TraceCollection& tc,
                      std::size_t max_workers = 0);

}  // namespace metascope::analysis
