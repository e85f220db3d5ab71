// Match-record collection shared by both analyzers. The serial
// (merged-trace) and parallel (replay) analyzers used to duplicate the
// p2p-side construction and collective-instance grouping; they now
// differ only in *how* they collect the raw match records:
//
//  - analyze_serial matches messages post-mortem and walks each rank's
//    op events once;
//  - analyze_parallel re-enacts the communication on a bounded worker
//    pool and collects the same records from the replay.
//
// Either way the records funnel into PatternEngine::dispatch
// (pattern_engine.hpp), which fires the detector callbacks in one
// canonical order — p2p records by (receiver rank, receive position),
// collective instances by (communicator, sequence) with members sorted
// by rank. Canonical order makes the floating-point accumulation
// identical between analyzers and across repeated parallel runs: cubes
// are bit-identical, not merely close, regardless of worker count or
// interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "analysis/wait_rules.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// One matched point-to-point message, both sides fully resolved.
struct P2pRecord {
  P2pSide send;
  P2pSide recv;
  /// Receive event's index in the receiver's trace — with recv.rank the
  /// canonical sort key (each Recv event matches exactly one message).
  std::uint32_t recv_index{0};
};

/// One collective instance: the seq-th collective on a communicator.
struct CollInstance {
  int comm{0};
  int seq{0};
  std::vector<CollMember> members;
  Rank root{kNoRank};
  RegionId region;
};

/// Every collective instance of a trace under construction, in the
/// member-slot layout of CommTables: each arriving member writes its own
/// slot, so members on different threads never share a lock or a
/// counter, and nobody waits for an instance to complete — the pattern
/// engine evaluates instances only after the whole replay.
class CollectiveSlots {
 public:
  explicit CollectiveSlots(const CommTables& tables);

  /// Records `m` as a member of the seq-th instance on `comm`. Safe to
  /// call concurrently for distinct (comm, seq, rank) — every recorded
  /// CollExit owns one slot. The instance's root and region are taken
  /// from its highest-ranked member, as a rank-ordered walk would leave
  /// them.
  void arrive(int comm, int seq, const CollMember& m, Rank root,
              RegionId region);

  /// The filled instances, by (comm, seq), members by rank.
  [[nodiscard]] std::vector<CollInstance> take() const;

 private:
  struct Head {
    Rank root{kNoRank};
    RegionId region;
  };
  const CommTables* tables_;
  std::vector<CollMember> members_;
  std::vector<Head> heads_;
};

/// Builds one side of a p2p transfer from a rank's annotated event.
P2pSide make_side(const PreparedTrace& prep, Rank rank, std::uint32_t index);

/// Groups every CollExit event into its (comm, seq) instance — the
/// serial analyzer's walk over each rank's op events. The parallel
/// analyzers fill the same CollectiveSlots during the replay.
std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep);

/// Fills the trace-volume stats the *materializing* analyzers report:
/// total events and resident trace bytes, where "resident" is the whole
/// collection (tracing::in_memory_bytes) because that is what those
/// analyzers actually hold. analyze_streaming does not call this — it
/// accounts only the windows resident at once and reports the
/// high-water mark (asserted against the budget in the stream tests).
void fill_trace_stats(const tracing::TraceCollection& tc,
                      AnalysisStats& stats);

}  // namespace metascope::analysis
