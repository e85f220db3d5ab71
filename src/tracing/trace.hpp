// Local traces and the experiment-wide trace collection.
#pragma once

#include <string>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/types.hpp"
#include "tracing/defs.hpp"
#include "tracing/event.hpp"

namespace metascope::tracing {

/// One offset measurement taken at runtime between this process and a
/// reference process (paper §3/§4). `local_mid` is this process's clock
/// at the measurement midpoint; `offset` estimates ref_clock - my_clock
/// at that moment. Phase 0 = program start, phase 1 = program end.
struct OffsetRecord {
  int phase{0};
  Rank ref_rank{kNoRank};
  double local_mid{0.0};
  double offset{0.0};
  /// Half of the best round-trip seen — Cristian's error bound.
  double error_bound{0.0};

  bool operator==(const OffsetRecord&) const = default;
};

/// One rank's events. Arrays of 128 KiB (2048 events) or more are
/// page-backed, so dropping a collection returns them to the OS whichever
/// thread decoded them.
using EventVector = std::vector<Event, PageAllocator<Event>>;

/// The events of one process, in its own clock domain, plus the offset
/// measurements the runtime recorded for post-mortem synchronization.
struct LocalTrace {
  Rank rank{kNoRank};
  EventVector events;
  std::vector<OffsetRecord> sync;

  bool operator==(const LocalTrace&) const = default;
};

/// Which synchronization protocol the measurement layer executed.
enum class SyncScheme {
  None,             ///< no measurements (perfect-clock experiments)
  FlatSingle,       ///< every slave vs rank 0, program start only
  FlatTwo,          ///< every slave vs rank 0, start and end
  HierarchicalTwo,  ///< slaves vs local master, masters vs metamaster
};

const char* to_string(SyncScheme s);

/// A complete experiment's worth of trace data.
struct TraceCollection {
  TraceDefs defs;
  std::vector<LocalTrace> ranks;
  SyncScheme scheme{SyncScheme::None};
  /// Which clock domain event times are in.
  bool synchronized{false};

  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(ranks.size());
  }
  [[nodiscard]] std::size_t total_events() const;
};

/// Resident size of a trace's payload vectors (events + sync records),
/// independent of any serialization format. The byte-accounting split:
/// "in-memory bytes" is what the analyzer holds and replays over;
/// "on-disk bytes" (telemetry counters archive.bytes_on_disk /
/// archive.read.bytes) is what the encoded archive occupies — the ratio
/// of the two is the trace-format compression ratio.
std::size_t in_memory_bytes(const LocalTrace& t);
std::size_t in_memory_bytes(const TraceCollection& tc);

/// What the quarantine rule did to one event.
enum class Pruned : std::uint8_t { No, Dropped, Degraded };

/// Permissive-recovery support: the ranks a read quarantined (their
/// traces emptied) and the rule every surviving rank's events follow
/// once they are gone. Out-of-range ranks, members and comm ids are
/// ignored.
class Quarantine {
 public:
  Quarantine(const TraceCollection& tc, const std::vector<Rank>& ranks);

  [[nodiscard]] bool holds(Rank r) const;

  /// The quarantine rule, applied to `e` in place:
  ///  - Send/Recv events whose peer is quarantined are dropped (the
  ///    enclosing MPI region stays as plain time);
  ///  - CollExit events on a communicator containing a quarantined rank
  ///    degrade to plain Exit events at the same time (the instance is
  ///    incomplete on every surviving rank, so the whole instance
  ///    disappears consistently).
  /// Region nesting stays balanced, so prepare()'s structural validation
  /// and the replay still hold.
  Pruned apply(Event& e) const;

 private:
  std::vector<char> rank_;  ///< by rank
  std::vector<char> comm_;  ///< by communicator index: has a quarantined member
};

/// Applies the quarantine rule to every surviving rank of `tc` and
/// returns the number of events dropped or degraded. Deterministic:
/// depends only on the collection and the quarantined set, never on
/// reader parallelism.
std::size_t prune_quarantined(TraceCollection& tc,
                              const std::vector<Rank>& quarantined);

}  // namespace metascope::tracing
