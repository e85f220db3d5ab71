// Match records, where both analysis modes meet. Both pair their
// messages with the same join (tracing::join_messages): analyze_parallel
// resolves the pairs against each rank's op records and groups the
// collectives from them; analyze_streaming's window pass writes each
// send's and receive's half of its record and each CollExit's member
// slot as it decodes. Either way they land in the CommTables slot
// layout, which is the canonical order
// PatternEngine::dispatch (pattern_engine.hpp) evaluates them in — p2p
// records by (receiver rank, receive position), collective instances by
// (communicator, sequence) with members sorted by rank — so the
// floating-point accumulation, and the cube, are bit-identical across
// modes and worker counts.
#pragma once

#include <cstddef>
#include <utility>
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
};

/// One collective instance: the seq-th collective on a communicator.
struct CollInstance {
  int comm{0};
  int seq{0};
  std::vector<CollMember> members;
  Rank root{kNoRank};
  RegionId region;
};

/// Every collective instance of a trace under construction, laid out by
/// CommTables, with one member slot per communicator member: each
/// arriving member writes its own slot, so members on different threads
/// never share a lock or a counter, and nobody waits for an instance to
/// complete — the pattern engine evaluates instances only after every
/// member has arrived.
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

  /// Moves out the filled instances, by (comm, seq), members by rank.
  [[nodiscard]] std::vector<CollInstance> take() {
    return std::move(instances_);
  }

 private:
  const CommTables* tables_;
  std::vector<CollInstance> instances_;
};

/// Builds one side of a p2p transfer from a rank's op record.
P2pSide make_side(const report::CallTree& calls, Rank rank,
                  const OpRecord& op);

/// Groups every CollExit event into its (comm, seq) instance, walking
/// each rank's op records on up to `max_workers` threads (0 = hardware
/// concurrency). analyze_streaming fills the same CollectiveSlots during
/// its window pass.
std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep,
                                            std::size_t max_workers = 0);

/// Sets stats.replay_bytes to what a distributed replay of `tables` moves
/// (24 B per message and per collective member) and adds it to the
/// "replay.bytes" counter.
void fill_replay_bytes(const CommTables& tables, AnalysisStats& stats);

}  // namespace metascope::analysis
