#include "analysis/replay_core.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace metascope::analysis {

using tracing::EventType;

P2pSide make_side(const report::CallTree& calls, Rank rank,
                  const OpRecord& op) {
  return P2pSide{rank, op.op_enter, op.op_exit, op.cnode,
                 calls.node(op.cnode).region};
}

CollectiveSlots::CollectiveSlots(const CommTables& tables)
    : tables_(&tables), instances_(tables.instance_begin.back()) {
  for (std::size_t c = 0; c < tables.comm_ranks.size(); ++c) {
    const std::size_t first = tables.instance_begin[c];
    for (std::size_t k = first; k < tables.instance_begin[c + 1]; ++k) {
      CollInstance& inst = instances_[k];
      inst.comm = static_cast<int>(c);
      inst.seq = static_cast<int>(k - first);
      inst.members.resize(tables.comm_ranks[c].size());
    }
  }
}

void CollectiveSlots::arrive(int comm, int seq, const CollMember& m,
                             Rank root, RegionId region) {
  const auto c = static_cast<std::size_t>(comm);
  const std::vector<Rank>& ranks = tables_->comm_ranks[c];
  CollInstance& inst =
      instances_[tables_->instance_begin[c] + static_cast<std::size_t>(seq)];
  inst.members[static_cast<std::size_t>(
      std::lower_bound(ranks.begin(), ranks.end(), m.rank) - ranks.begin())] =
      m;
  if (m.rank == ranks.back()) {
    inst.root = root;
    inst.region = region;
  }
}

std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep,
                                            std::size_t max_workers) {
  CollectiveSlots slots(prep.comm);
  const auto group = [&](std::size_t r) {
    const tracing::LocalTrace& trace = tc.ranks[r];
    std::vector<int> coll_seq(tc.defs.comms.size(), 0);
    for (const OpRecord& op : prep.ops[r]) {
      const auto& e = trace.events[op.index];
      if (e.type != EventType::CollExit) continue;
      const int comm = e.comm.get();
      slots.arrive(comm, coll_seq[static_cast<std::size_t>(comm)]++,
                   CollMember{trace.rank, op.op_enter, op.op_exit, op.cnode},
                   e.root, e.region);
    }
  };
  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  parallel_for(tc.ranks.size(), max_workers, group, &rec_obs);
  return slots.take();
}

void fill_replay_bytes(const CommTables& tables, AnalysisStats& stats) {
  // Rank (4) + two timestamps (16) + call path (4), packed.
  constexpr std::size_t kPeerWireBytes = 24;
  stats.replay_bytes =
      kPeerWireBytes * (tables.num_records() + tables.member_begin.back());
  telemetry::counter("replay.bytes").add(stats.replay_bytes);
}

}  // namespace metascope::analysis
