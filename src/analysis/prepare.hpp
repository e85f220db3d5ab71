// Pre-analysis pass ("definition unification"): one walk per rank, in
// parallel, numbers the rank's call paths locally, checks its structure,
// records every communication event with its call path and
// enclosing-operation times, and sums per-call-path exclusive times; a
// serial merge over call-tree nodes then assigns the global ids, the
// same for every analyzer and worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
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

/// The record layout both analysis modes fill, fixed before any record
/// is: both prepares see every Recv and CollExit, so records land in
/// dense arrays instead of being looked up by envelope.
///
///  - One record slot per Recv: rank r's k-th receive fills slot
///    recv_begin[r] + k, so the slots come out in canonical
///    (receiver, receive position) order.
///  - One collective instance per (communicator, sequence): the seq-th
///    instance on communicator c is instance instance_begin[c] + seq,
///    with one member slot per member of c in ascending rank order
///    (comm_ranks[c]); member_begin[c] counts the member slots of the
///    communicators before c.
struct CommTables {
  std::vector<std::size_t> recv_begin;      ///< ranks + 1 entries
  std::vector<std::size_t> member_begin;    ///< comms + 1 entries
  std::vector<std::size_t> instance_begin;  ///< comms + 1 entries
  std::vector<std::vector<Rank>> comm_ranks;

  [[nodiscard]] std::size_t num_records() const { return recv_begin.back(); }
};

/// What one rank's trace contributes to the CommTables.
struct RankComm {
  std::size_t recvs{0};
  std::vector<int> colls;  ///< CollExit count per communicator id

  /// Counts one event RankWalk::step recorded (a Recv, or a CollExit on
  /// a communicator the walk checked; a Send adds nothing).
  void add(const tracing::Event& e);
};

/// Definition unification. Each rank's walk files its call paths here,
/// in any order and from any thread, into a few shared buffers: small
/// per-rank allocations, made on a worker and freed on another thread,
/// kept the workers' malloc arenas from shrinking (~2 MB on 2048 ranks).
class CallPathPool {
 public:
  explicit CallPathPool(std::size_t ranks) : at_(ranks) {}

  /// Files rank `r`'s call paths (local ids, by first appearance) and
  /// their exclusive seconds; safe to call from many threads.
  void add(std::size_t r, const report::CallTree& calls,
           const std::vector<double>& excl);

  /// Inserts each rank's call paths into `global` with get_or_add, ranks
  /// ascending and each rank's in local-id order, and returns per rank
  /// the global id of each local id. That assigns exactly the ids one
  /// walk of every rank in order into one tree assigns, since a rank
  /// meets the paths the tree lacks in the order its local ids number
  /// them, and costs O(call paths), not O(events). `excl_time[r]`
  /// receives rank r's exclusive times under the global ids, sorted by
  /// global id: the order the region pass adds them in.
  std::vector<std::vector<CallPathId>> unify(
      report::CallTree& global,
      std::vector<std::vector<ExclusiveTime>>& excl_time) const;

 private:
  struct Slot {
    std::size_t first{0};
    std::size_t count{0};
  };
  std::mutex mutex_;
  std::vector<report::CallPathNode> nodes_;
  std::vector<double> excl_;
  std::vector<Slot> at_;  ///< by rank
};

/// The walk of one rank, shared by both analysis modes: prepare() feeds
/// it the rank's event vector, analyze_streaming the events a
/// TraceStream decodes (after the quarantine rule, so event indices
/// match the pruned collection's). Fed every event in order, it numbers
/// the rank's call paths in a private tree — get_or_add at every Enter —
/// runs every structural check, appends one OpRecord per Send, Recv and
/// CollExit to `ops` (call paths in local ids) and sums exclusive time
/// per call path. A Send/Recv record's window is filled when its
/// enclosing region exits, so `ops` may be cleared (or consumed)
/// whenever open() is zero.
class RankWalk {
 public:
  RankWalk(Rank rank, std::size_t num_comms, std::vector<OpRecord>& ops);

  /// Walks the next event; returns true when it appended a record.
  /// Throws Error ("malformed trace: rank R event I: ...") on an Exit
  /// without Enter, a negative region duration, a collective on an
  /// unknown communicator, or a message event outside any region.
  bool step(const tracing::Event& e);

  /// Send/Recv records still waiting for their region's exit.
  [[nodiscard]] std::size_t open() const { return open_.size(); }

  /// The call paths numbered so far.
  [[nodiscard]] const report::CallTree& calls() const { return calls_; }

  /// Ends the rank: throws Error on an unclosed region, else files its
  /// call paths and exclusive times with `paths`.
  void finish(CallPathPool& paths) const;

 private:
  struct Frame {
    CallPathId cnode;
    double enter_time;
    double child_time;
    std::size_t open_base;  ///< open_.size() when the region was entered
  };
  [[noreturn]] void fail(const char* what) const;

  Rank rank_;
  std::size_t num_comms_;
  std::vector<OpRecord>& ops_;
  report::CallTree calls_;
  std::vector<double> excl_;  ///< by local id
  std::vector<Frame> stack_;
  /// Positions in ops_ of the Send/Recv records awaiting an exit,
  /// innermost region last.
  std::vector<std::uint32_t> open_;
  std::uint32_t index_{0};
};

/// Builds the tables from every rank's finished contribution (`ranks`
/// is indexed by rank) and validates collective completeness: every
/// member of a communicator must record the same number of collectives
/// on it, and no other rank may record any. Throws Error otherwise, so
/// every member slot exists before any record is written.
CommTables build_comm_tables(const tracing::TraceDefs& defs,
                             const std::vector<RankComm>& ranks);

struct PreparedTrace {
  report::CallTree calls;
  /// Per rank: the RankWalk records in global ids, in trace order. The
  /// replay iterates these and never touches Enter/Exit events.
  std::vector<std::vector<OpRecord>> ops;
  /// Exclusive time per call path, per rank (summed over occurrences).
  std::vector<std::vector<ExclusiveTime>> excl_time;
  CommTables comm;
};

/// Walks all ranks on up to `max_workers` threads (0 = hardware
/// concurrency), then unifies their call paths; results are identical
/// for every worker count. Throws Error on malformed traces (unbalanced
/// Enter/Exit, events outside any region; the lowest failing rank's
/// error, whatever the schedule) and on incomplete collective instances
/// (a communicator member missing from a collective), so analysis fails
/// fast before any replay starts.
PreparedTrace prepare(const tracing::TraceCollection& tc,
                      std::size_t max_workers = 0);

}  // namespace metascope::analysis
