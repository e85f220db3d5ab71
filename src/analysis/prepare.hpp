// Pre-analysis pass ("definition unification"): builds the global call
// tree, records every communication event with its call path and
// enclosing-operation times, and accumulates per-call-path exclusive
// times. Call-path ids are assigned in a serial first pass (ranks in
// order, events in order) so that ids — and therefore cubes — are
// bit-identical between the serial and the parallel analysis for any
// worker count; the op walk then fans out one task per rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "report/cube.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// One communication event (Send, Recv or CollExit) as the replay sees
/// it: the event's position in its rank's stream, its call path, and the
/// enter/exit times of its enclosing MPI call (for a CollExit: the
/// collective region's Enter and the CollExit itself).
struct OpRecord {
  std::uint32_t index{0};
  CallPathId cnode;
  double op_enter{0.0};
  double op_exit{0.0};

  bool operator==(const OpRecord&) const = default;
};

/// One (call path, seconds) exclusive-time contribution.
struct ExclusiveTime {
  CallPathId cnode;
  double seconds{0.0};

  bool operator==(const ExclusiveTime&) const = default;
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
///  - One collective instance per (communicator, sequence): the seq-th
///    instance on communicator c is instance instance_begin[c] + seq,
///    with one member slot per member of c in ascending rank order
///    (comm_ranks[c]); member_begin[c] counts the member slots of the
///    communicators before c.
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

/// The op walk of one rank, shared by both analysis modes: prepare()
/// feeds it each rank's event vector, analyze_streaming each window's
/// decoded events. Fed the events RankWalk accepted, in order, against
/// the finished call tree, it appends one OpRecord per Send, Recv and
/// CollExit to `ops` and sums exclusive time per call path. A Send/Recv
/// record's window is filled when its enclosing region exits, so
/// `ops` may be cleared (or consumed) whenever open() is zero.
class OpWalk {
 public:
  OpWalk(const report::CallTree& calls, std::vector<OpRecord>& ops);

  /// Walks the next event; returns true when it appended a record.
  /// Throws Error on an Enter whose call path is not in the tree.
  bool step(const tracing::Event& e);

  /// Send/Recv records still waiting for their region's exit.
  [[nodiscard]] std::size_t open() const { return open_.size(); }

  /// Exclusive seconds per call path visited so far, by call-path id.
  [[nodiscard]] std::vector<ExclusiveTime> exclusive_times() const;

 private:
  struct Frame {
    CallPathId cnode;
    double enter_time;
    double child_time;
    std::size_t open_base;  ///< open_.size() when the region was entered
  };

  const report::CallTree& calls_;
  std::vector<OpRecord>& ops_;
  std::vector<Frame> stack_;
  /// Positions in ops_ of the Send/Recv records awaiting an exit,
  /// innermost region last.
  std::vector<std::uint32_t> open_;
  std::map<int, double> excl_;
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
  report::CallTree calls;
  /// Per rank: the OpWalk records, in trace order. The replay iterates
  /// these and never touches Enter/Exit events.
  std::vector<std::vector<OpRecord>> ops;
  /// Exclusive time per call path, per rank (summed over occurrences).
  std::vector<std::vector<ExclusiveTime>> excl_time;
  CommTables comm;
};

/// Walks all ranks. Throws Error on malformed traces (unbalanced
/// Enter/Exit, events outside any region) and on incomplete collective
/// instances (a communicator member missing from a collective), so both
/// analyzers fail fast before any replay starts. The per-rank op walk
/// runs on up to `max_workers` threads (0 = hardware concurrency);
/// results are identical for every worker count.
PreparedTrace prepare(const tracing::TraceCollection& tc,
                      std::size_t max_workers = 0);

}  // namespace metascope::analysis
