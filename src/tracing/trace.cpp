#include "tracing/trace.hpp"

#include <algorithm>

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

std::vector<TraceCollection::GlobalRef> TraceCollection::global_order()
    const {
  std::vector<GlobalRef> order;
  order.reserve(total_events());

  // Each rank's stream is already time-sorted in every normal pipeline
  // (monotone clocks, and both sync stages preserve per-rank order), so
  // the global order is a k-way merge: O(N log k) instead of the old
  // O(N log N) sort over all events at once. Verify the premise with
  // one linear scan and fall back to the full sort if any rank's stream
  // is out of order — same result either way.
  bool per_rank_sorted = true;
  for (const auto& t : ranks) {
    for (std::size_t i = 1; i < t.events.size(); ++i) {
      if (t.events[i].time < t.events[i - 1].time) {
        per_rank_sorted = false;
        break;
      }
    }
    if (!per_rank_sorted) break;
  }

  if (!per_rank_sorted) {
    for (const auto& t : ranks)
      for (std::uint32_t i = 0; i < t.events.size(); ++i)
        order.push_back({t.rank, i});
    std::sort(
        order.begin(), order.end(),
        [this](const GlobalRef& a, const GlobalRef& b) {
          const double ta =
              ranks[static_cast<std::size_t>(a.rank)].events[a.index].time;
          const double tb =
              ranks[static_cast<std::size_t>(b.rank)].events[b.index].time;
          if (ta != tb) return ta < tb;
          if (a.rank != b.rank) return a.rank < b.rank;
          return a.index < b.index;
        });
    return order;
  }

  // Min-heap over each rank's head event, keyed (time, rank, index) —
  // exactly the sort's comparator, so the merged order (including the
  // tie-break among equal timestamps) is identical to the old sort's.
  struct Head {
    double time;
    Rank rank;
    std::uint32_t index;
  };
  // greater-than for a min-heap via std::push_heap/pop_heap.
  const auto after = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.index > b.index;
  };
  std::vector<Head> heap;
  heap.reserve(ranks.size());
  for (const auto& t : ranks)
    if (!t.events.empty())
      heap.push_back(Head{t.events.front().time, t.rank, 0});
  std::make_heap(heap.begin(), heap.end(), after);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head h = heap.back();
    heap.pop_back();
    order.push_back({h.rank, h.index});
    const auto& events = ranks[static_cast<std::size_t>(h.rank)].events;
    if (h.index + 1 < events.size()) {
      heap.push_back(Head{events[h.index + 1].time, h.rank, h.index + 1});
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  return order;
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
