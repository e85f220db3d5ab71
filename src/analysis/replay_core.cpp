#include "analysis/replay_core.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace metascope::analysis {

using tracing::EventType;

P2pSide make_side(const PreparedTrace& prep, Rank rank, std::uint32_t index) {
  const auto& ann = prep.per_rank[static_cast<std::size_t>(rank)];
  P2pSide s;
  s.rank = rank;
  s.op_enter = ann.op_enter[index];
  s.op_exit = ann.op_exit[index];
  s.cnode = ann.cnode[index];
  s.region = prep.calls.node(s.cnode).region;
  return s;
}

CollectiveSlots::CollectiveSlots(const CommTables& tables)
    : tables_(&tables),
      members_(tables.member_begin.back()),
      heads_(tables.instance_begin.back()) {}

void CollectiveSlots::arrive(int comm, int seq, const CollMember& m,
                             Rank root, RegionId region) {
  const auto c = static_cast<std::size_t>(comm);
  members_[tables_->member_slot(comm, seq, m.rank)] = m;
  if (m.rank == tables_->comm_ranks[c].back())
    heads_[tables_->instance_begin[c] + static_cast<std::size_t>(seq)] =
        Head{root, region};
}

std::vector<CollInstance> CollectiveSlots::take() const {
  std::vector<CollInstance> out;
  out.reserve(heads_.size());
  const std::size_t ncomm = tables_->comm_ranks.size();
  for (std::size_t c = 0; c < ncomm; ++c) {
    const std::size_t size = tables_->comm_ranks[c].size();
    const std::size_t first = tables_->instance_begin[c];
    for (std::size_t k = first; k < tables_->instance_begin[c + 1]; ++k) {
      const auto slot = static_cast<std::ptrdiff_t>(
          tables_->member_begin[c] + (k - first) * size);
      CollInstance& inst = out.emplace_back();
      inst.comm = static_cast<int>(c);
      inst.seq = static_cast<int>(k - first);
      inst.members.assign(members_.begin() + slot,
                          members_.begin() + slot +
                              static_cast<std::ptrdiff_t>(size));
      inst.root = heads_[k].root;
      inst.region = heads_[k].region;
    }
  }
  return out;
}

std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep) {
  CollectiveSlots slots(prep.comm);
  std::vector<int> coll_seq(tc.defs.comms.size());
  for (const auto& trace : tc.ranks) {
    const auto ri = static_cast<std::size_t>(trace.rank);
    const auto& ann = prep.per_rank[ri];
    std::fill(coll_seq.begin(), coll_seq.end(), 0);
    for (const std::uint32_t i : ann.op_events) {
      const auto& e = trace.events[i];
      if (e.type != EventType::CollExit) continue;
      const int comm = e.comm.get();
      slots.arrive(comm, coll_seq[static_cast<std::size_t>(comm)]++,
                   CollMember{trace.rank, ann.op_enter[i], ann.op_exit[i],
                              ann.cnode[i]},
                   e.root, e.region);
    }
  }
  return slots.take();
}

void fill_trace_stats(const tracing::TraceCollection& tc,
                      AnalysisStats& stats) {
  stats.events = tc.total_events();
  stats.trace_bytes_in_memory = tracing::in_memory_bytes(tc);
  telemetry::counter("analysis.events").add(stats.events);
  telemetry::counter("analysis.trace_bytes_in_memory")
      .add(stats.trace_bytes_in_memory);
}

}  // namespace metascope::analysis
