#include "tracing/trace.hpp"

#include <utility>

namespace metascope::tracing {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::Enter: return "ENTER";
    case EventType::Exit: return "EXIT";
    case EventType::Send: return "SEND";
    case EventType::Recv: return "RECV";
    case EventType::CollExit: return "COLLEXIT";
  }
  return "?";
}

const char* to_string(SyncScheme s) {
  switch (s) {
    case SyncScheme::None: return "none";
    case SyncScheme::FlatSingle: return "flat-single";
    case SyncScheme::FlatTwo: return "flat-two";
    case SyncScheme::HierarchicalTwo: return "hierarchical-two";
  }
  return "?";
}

std::size_t in_memory_bytes(const LocalTrace& t) {
  return t.events.size() * sizeof(Event) +
         t.sync.size() * sizeof(OffsetRecord);
}

std::size_t in_memory_bytes(const TraceCollection& tc) {
  std::size_t n = 0;
  for (const auto& t : tc.ranks) n += in_memory_bytes(t);
  return n;
}

std::size_t TraceCollection::total_events() const {
  std::size_t n = 0;
  for (const auto& t : ranks) n += t.events.size();
  return n;
}

Quarantine::Quarantine(const TraceCollection& tc,
                       const std::vector<Rank>& ranks)
    : rank_(static_cast<std::size_t>(tc.num_ranks()), 0),
      comm_(tc.defs.comms.size(), 0) {
  for (const Rank r : ranks)
    if (r >= 0 && r < tc.num_ranks()) rank_[static_cast<std::size_t>(r)] = 1;
  // Communicators with at least one quarantined member can never again
  // complete a collective instance.
  for (std::size_t c = 0; c < comm_.size(); ++c)
    for (const Rank m : tc.defs.comms[c].members)
      if (holds(m)) comm_[c] = 1;
}

bool Quarantine::holds(Rank r) const {
  return r >= 0 && static_cast<std::size_t>(r) < rank_.size() &&
         rank_[static_cast<std::size_t>(r)] != 0;
}

Pruned Quarantine::apply(Event& e) const {
  switch (e.type) {
    case EventType::Send:
    case EventType::Recv:
      return holds(e.peer) ? Pruned::Dropped : Pruned::No;
    case EventType::CollExit: {
      const auto c = static_cast<std::size_t>(e.comm.get());
      if (!e.comm.valid() || c >= comm_.size() || comm_[c] == 0)
        return Pruned::No;
      Event exit_ev;
      exit_ev.type = EventType::Exit;
      exit_ev.time = e.time;
      e = exit_ev;
      return Pruned::Degraded;
    }
    default:
      return Pruned::No;
  }
}

std::size_t prune_quarantined(TraceCollection& tc,
                              const std::vector<Rank>& quarantined) {
  if (quarantined.empty()) return 0;
  const Quarantine q(tc, quarantined);
  std::size_t pruned = 0;
  for (auto& t : tc.ranks) {
    if (q.holds(t.rank)) continue;
    EventVector kept;
    kept.reserve(t.events.size());
    for (Event e : t.events) {
      const Pruned p = q.apply(e);
      if (p != Pruned::No) ++pruned;
      if (p != Pruned::Dropped) kept.push_back(e);
    }
    t.events = std::move(kept);
  }
  return pruned;
}

}  // namespace metascope::tracing
