// Out-of-core streaming replay: the SCALASCA-style parallel analysis
// over v3 archives on disk, and the one user of the replay protocol.
// Each rank task owns a windowed cursor (tracing::TraceStream) over its
// mapped trace blob and decodes one bounded window of communication
// events at a time; a consumed window is evicted before the next one is
// brought in, so peak trace-resident memory is ~ budget instead of
// ~ trace size.
//
// Two streaming passes replace prepare():
//
//  - a *light* pass (it keeps no event) inside the open fan-out, one
//    task per rank, drains the rank's TraceStream through next() in
//    bounded chunks and feeds every event to RankWalk, the walk the
//    materializing prepare runs: the rank's local call tree, every
//    structural check, its exclusive times and its share of the
//    replay's CommTables. Decoding every column here raises payload
//    corruption before any replay starts.
//    Definition unification (CallPathPool::unify, ranks ascending over
//    call-tree nodes) then gives the materializing prepare's global ids,
//    and collective completeness is validated before any task runs;
//  - the *window* pass inside each replay task re-opens the stream and
//    walks it again: the RankWalk rebuilds the same local tree and
//    records call paths and enclosing-op windows as events decode, each
//    window's records mapped through the rank's local-to-global ids;
//    only the communication events and their records stay resident.
//
// A window nominally holds budget/(ranks * per-op footprint) events and
// extends only while a Send/Recv in it still awaits its enclosing
// call's exit; the budget drives window *sizing*, never cross-rank
// blocking, so tiny budgets degrade to single-event windows but cannot
// deadlock. Severity accumulation order is unchanged — same per-rank
// exclusive-time chains, same canonical dispatch — so the cube is
// bit-identical to analyze_parallel's for any budget.
//
// Permissive sources (StreamSource::quarantined) are filtered on the
// fly: events of quarantined ranks never decode, and both passes run
// every surviving event through tracing::Quarantine::apply, the rule
// tracing::prune_quarantined applies to a materialized collection.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/replay_protocol.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "tracing/stream.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

namespace {

/// Window size (events per rank) when no memory budget is given.
constexpr std::size_t kDefaultWindowEvents = 4096;
/// Decode granularity: events pulled from the column cursors per call.
/// Bounded so the lookahead ring stays small next to tiny windows.
constexpr std::size_t kMaxDecodeChunk = 256;

/// Trace-resident byte accounting shared by every rank task: the live
/// total feeds the "analysis.stream.resident_bytes" gauge, the atomic
/// high-water mark is authoritative for AnalysisStats (it works with
/// telemetry disabled) and also raises the
/// "analysis.stream.resident_bytes_peak" gauge.
class Residency {
 public:
  Residency()
      : cur_gauge_(telemetry::gauge("analysis.stream.resident_bytes")),
        peak_gauge_(telemetry::gauge("analysis.stream.resident_bytes_peak")) {}

  void adjust(std::ptrdiff_t delta) {
    const std::size_t cur =
        now_.fetch_add(static_cast<std::size_t>(delta),
                       std::memory_order_relaxed) +
        static_cast<std::size_t>(delta);
    cur_gauge_.set(static_cast<double>(cur));
    std::size_t p = peak_.load(std::memory_order_relaxed);
    while (cur > p &&
           !peak_.compare_exchange_weak(p, cur, std::memory_order_relaxed)) {
    }
    peak_gauge_.max(static_cast<double>(cur));
  }

  [[nodiscard]] std::size_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> now_{0};
  std::atomic<std::size_t> peak_{0};
  telemetry::Gauge& cur_gauge_;
  telemetry::Gauge& peak_gauge_;
};

/// Everything one rank task owns: its mapped blob (the page-aligned
/// window of its container extent) and the windowed cursor over it, the
/// walk bridging windows, the rank's local-to-global call-path ids, and
/// the current window.
struct RankStream {
  MappedFile file;
  /// The blob's offset in its container: cursor errors count from the
  /// blob's start, reported errors from the container's.
  std::uint64_t base{0};
  std::optional<tracing::TraceStream> ts;  ///< nullopt: quarantined rank

  // Decoded-but-unwalked lookahead ring (bounded by kMaxDecodeChunk).
  std::vector<Event> raw;
  std::size_t rpos{0};

  std::vector<CallPathId> ids;  ///< global id of each local call path

  // Current window: the retained communication events and their op
  // records (in global ids), index-aligned; `walk` appends to `ops`.
  std::vector<Event> win;
  std::vector<OpRecord> ops;
  std::optional<RankWalk> walk;
  std::size_t wpos{0};
  std::size_t resident{0};  ///< bytes this rank currently accounts
  std::uint32_t windows_filled{0};

  // Tallies from the light pass.
  std::uint64_t events_kept{0};
  std::uint64_t pruned{0};
};

}  // namespace

AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts) {
  const tracing::TraceCollection& tc = src.defs;
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_streaming requires synchronized timestamps");
  const auto n = static_cast<std::size_t>(tc.num_ranks());
  MSC_CHECK(src.extents.size() == n, "stream source extents/defs mismatch");
  const tracing::TraceDefs& defs = tc.defs;

  const tracing::Quarantine quarantine(tc, src.quarantined);

  // Window sizing: the budget bounds the bytes of retained events and
  // their records resident across all ranks at once; the floor of one
  // event per rank keeps a pathological budget from stalling (it
  // degrades to single-event windows instead).
  const std::size_t window_events =
      opts.memory_budget_bytes == 0
          ? kDefaultWindowEvents
          : std::max<std::size_t>(
                1, opts.memory_budget_bytes /
                       (std::max<std::size_t>(n, 1) *
                        (sizeof(Event) + sizeof(OpRecord))));
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min(window_events, kMaxDecodeChunk));

  AnalysisResult res;
  report::CallTree calls;
  std::vector<RankStream> streams(n);
  std::vector<RankComm> comm_in(n);
  std::vector<std::vector<ExclusiveTime>> excl_time(n);
  CommTables comm_tables;
  Residency residency;
  telemetry::Counter& windows_counter =
      telemetry::counter("analysis.stream.windows");

  // Streaming prepare: one task per surviving rank maps its blob, runs
  // the light pass and re-opens the stream for the window pass.
  // Quarantined ranks stay closed and stream zero events.
  {
    telemetry::ScopedSpan span("prepare");
    CallPathPool paths(n);
    // An error is stashed, not thrown, so the lowest failing rank
    // surfaces whatever the schedule.
    std::vector<std::exception_ptr> err(n);
    parallel_for(n, opts.max_workers, [&](std::size_t r) {
      if (quarantine.holds(static_cast<Rank>(r))) return;
      RankStream& rs = streams[r];
      const tracing::TraceExtent& at = src.extents[r];
      try {
        rs.base = at.offset;
        rs.file = MappedFile::open(at.path, at.offset,
                                   static_cast<std::size_t>(at.length));
        try {
          tracing::TraceStream ts(rs.file.data(), rs.file.size(), at.path);
          // Records are complete whenever none is open; the light pass
          // drops them there, the window pass keeps them.
          std::vector<OpRecord> ops;
          RankWalk walk(static_cast<Rank>(r), defs.comms.size(), ops);
          std::vector<Event> raw;
          while (ts.next(raw, chunk) != 0) {
            for (Event& e : raw) {
              const tracing::Pruned p = quarantine.apply(e);
              if (p != tracing::Pruned::No) ++rs.pruned;
              if (p == tracing::Pruned::Dropped) continue;
              ++rs.events_kept;
              if (walk.step(e)) comm_in[r].add(e);
              if (walk.open() == 0) ops.clear();
            }
            raw.clear();
          }
          walk.finish(paths);
          comm_in[r].finish(n);
          rs.ts.emplace(rs.file.data(), rs.file.size(), at.path);
        } catch (const Error& e) {
          throw e.offset_by(rs.base);
        }
      } catch (const Error& e) {
        err[r] = std::make_exception_ptr(
            e.with_context(ErrorContext{at.path, static_cast<Rank>(r), -1}));
        return;
      }
      rs.walk.emplace(static_cast<Rank>(r), defs.comms.size(), rs.ops);
      // Sync records are materialized for the stream's whole lifetime;
      // window bytes come and go on top of this floor.
      rs.resident = rs.ts->sync().size() * sizeof(tracing::OffsetRecord);
      residency.adjust(static_cast<std::ptrdiff_t>(rs.resident));
    });
    for (const std::exception_ptr& e : err)
      if (e) std::rethrow_exception(e);

    // Definition unification, ranks ascending over call-tree nodes.
    auto ids = paths.unify(calls, excl_time);
    for (std::size_t r = 0; r < n; ++r) streams[r].ids = std::move(ids[r]);

    comm_tables = build_comm_tables(defs, comm_in);
    telemetry::counter("prepare.ranks").add(n);
    telemetry::counter("prepare.call_paths").add(calls.size());
  }

  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install_trees(tc, calls);

  // Evicts the consumed window and walks the next one. The window
  // extends past its nominal size only while a Send/Recv in it still
  // awaits its enclosing call's exit, which is what guarantees every op
  // window is complete before the replay consumes the event. The light
  // pass decoded these bytes already, so no decode error is left.
  auto fill_window = [&](RankStream& rs) {
    rs.win.clear();
    rs.ops.clear();
    rs.wpos = 0;
    tracing::TraceStream& ts = *rs.ts;
    RankWalk& walk = *rs.walk;
    while (rs.ops.size() < window_events || walk.open() > 0) {
      if (rs.rpos == rs.raw.size()) {
        if (ts.at_end()) break;
        rs.raw.clear();
        rs.rpos = 0;
        ts.next(rs.raw, chunk);
        continue;
      }
      Event& e = rs.raw[rs.rpos++];
      if (quarantine.apply(e) == tracing::Pruned::Dropped) continue;
      if (walk.step(e)) rs.win.push_back(e);
    }
    MSC_CHECK(walk.open() == 0,
              "streaming window closed with unfilled message ops");
    // The walk rebuilds the light pass's local tree, id for id.
    for (OpRecord& op : rs.ops) {
      const auto c = static_cast<std::size_t>(op.cnode.get());
      MSC_CHECK(c < rs.ids.size(),
                "window pass met a call path the light pass never numbered");
      op.cnode = rs.ids[c];
    }
    const std::size_t now =
        rs.win.capacity() * sizeof(Event) +
        rs.ops.capacity() * sizeof(OpRecord) +
        rs.raw.capacity() * sizeof(Event) +
        rs.ts->sync().size() * sizeof(tracing::OffsetRecord);
    // Capacities go quiescent after the first few windows; skipping the
    // no-op adjust keeps the shared atomics off the steady-state path.
    if (now != rs.resident) {
      residency.adjust(static_cast<std::ptrdiff_t>(now) -
                       static_cast<std::ptrdiff_t>(rs.resident));
      rs.resident = now;
    }
  };

  telemetry::ScopedSpan replay_span("replay");
  ReplayProtocol replay(comm_tables, calls, opts);

  auto step = [&](std::size_t ti) -> StepOutcome {
    RankStream& rs = streams[ti];
    if (!rs.ts) return StepOutcome::Done;  // quarantined: zero events
    for (;;) {
      if (rs.wpos == rs.win.size()) {
        if (rs.ts->at_end() && rs.rpos == rs.raw.size() &&
            rs.wpos == rs.win.size() && rs.win.empty()) {
          // Fully consumed: release the last resident bytes and flush
          // this rank's window tally in one add (per-window counter
          // bumps would contend across workers under tiny budgets).
          residency.adjust(-static_cast<std::ptrdiff_t>(rs.resident));
          rs.resident = 0;
          rs.raw = {};
          rs.win = {};
          rs.ops = {};
          MSC_CHECK(rs.walk->calls().size() == rs.ids.size(),
                    "window pass rebuilt a different call tree");
          rs.walk.reset();
          // Unmap here, on the worker, rather than in the analyzer's
          // epilogue: the stream is consumed, and a thousand munmaps
          // overlap the still-running ranks instead of serializing
          // after the replay. The cursor borrows the mapping's bytes,
          // so it goes first.
          rs.ts.reset();
          rs.file = MappedFile();
          windows_counter.add(rs.windows_filled);
          rs.windows_filled = 0;
          return StepOutcome::Done;
        }
        fill_window(rs);
        if (rs.win.empty()) continue;  // Enter/Exit-only tail -> Done
        // Periodic cooperative yield: hand the worker back so other
        // ranks' windows interleave under tiny budgets, but only every
        // 32nd window — yielding on every fill dominates the replay
        // wall once single-event windows make fills cheap and frequent.
        // Correctness never depends on this: receives suspend on their
        // own.
        if (++rs.windows_filled % 32 == 0) {
          replay.yield(ti);
          return StepOutcome::Suspend;
        }
        continue;
      }
      if (!replay.replay(ti, rs.win[rs.wpos], rs.ops[rs.wpos]))
        return StepOutcome::Suspend;
      ++rs.wpos;
    }
  };

  replay.run(step);

  // Region pass before dispatch — the same cube add order as the
  // materializing analyzers (install's region pass precedes their
  // replay), over the light pass's exclusive times.
  engine.region_pass(excl_time);
  replay.finish(engine, res.stats);

  std::uint64_t total_events = 0;
  std::uint64_t pruned = 0;
  for (const RankStream& rs : streams) {
    total_events += rs.events_kept;
    pruned += rs.pruned;
  }
  res.stats.events = total_events;
  // "Resident" under streaming = the high-water mark of bytes the
  // windows (plus materialized sync records) held at once — what the
  // memory budget actually bounds, not the full collection size.
  res.stats.trace_bytes_in_memory = residency.peak();
  telemetry::counter("analysis.events").add(total_events);
  telemetry::counter("analysis.trace_bytes_in_memory")
      .add(res.stats.trace_bytes_in_memory);
  if (pruned > 0)
    telemetry::counter("archive.read.pruned_events").add(pruned);
  return res;
}

}  // namespace metascope::analysis
