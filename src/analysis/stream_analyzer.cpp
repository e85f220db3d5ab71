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
//  - a *light* pass (serial, ranks in order) feeds the type/time/region/
//    comm/peer columns (TraceStream::scan_light) through RankWalk, the
//    structural walk the materializing prepare runs: identical call-path
//    ids, identical diagnostics, and each rank's communication counted
//    for the replay's CommTables (collective completeness is validated
//    there, before any task runs);
//  - the *window* pass inside each replay task: each rank's OpWalk (the
//    walk prepare() runs over a materialized rank) records call paths,
//    enclosing-op windows and exclusive times as events decode, against
//    the tree the light pass built; only the communication events and
//    their records stay resident.
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
/// op walk bridging windows, and the current window.
struct RankStream {
  MappedFile file;
  /// The blob's offset in its container: cursor errors count from the
  /// blob's start, reported errors from the container's.
  std::uint64_t base{0};
  std::optional<tracing::TraceStream> ts;  ///< nullopt: quarantined rank

  // Decoded-but-unwalked lookahead ring (bounded by kMaxDecodeChunk).
  std::vector<Event> raw;
  std::size_t rpos{0};

  // Current window: the retained communication events and their op
  // records, index-aligned; `walk` appends to `ops`.
  std::vector<Event> win;
  std::vector<OpRecord> ops;
  std::optional<OpWalk> walk;
  std::size_t wpos{0};
  std::size_t resident{0};  ///< bytes this rank currently accounts
  std::uint32_t windows_filled{0};

  // Tallies from the structural walk.
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

  AnalysisResult res;
  report::CallTree calls;
  std::vector<RankStream> streams(n);
  std::vector<RankComm> comm_in(n);
  CommTables comm_tables;
  Residency residency;
  telemetry::Counter& windows_counter =
      telemetry::counter("analysis.stream.windows");

  // Streaming prepare: map every surviving rank's blob and run the
  // light pass, ranks in ascending order so call-path ids match the
  // materializing prepare exactly. Quarantined ranks stay closed and
  // stream zero events.
  {
    telemetry::ScopedSpan span("prepare");
    // Opening + header/type-stream validation is per-rank independent
    // and syscall-heavy (open, mmap, first page faults), so it fans out
    // like read_traces' decode. The call-path walk below stays serial in
    // rank order — that order is what makes the ids match the
    // materializing prepare. An open error is stashed, not thrown: the
    // serial walk rethrows it at the rank's slot, so the surfacing rank
    // is the lowest failing one exactly as under the old serial loop.
    std::vector<std::exception_ptr> open_err(n);
    parallel_for(n, opts.max_workers, [&](std::size_t r) {
      if (quarantine.holds(static_cast<Rank>(r))) return;
      RankStream& rs = streams[r];
      const tracing::TraceExtent& at = src.extents[r];
      try {
        rs.base = at.offset;
        rs.file = MappedFile::open(at.path, at.offset,
                                   static_cast<std::size_t>(at.length));
        try {
          rs.ts.emplace(rs.file.data(), rs.file.size(), at.path);
        } catch (const Error& e) {
          throw e.offset_by(rs.base);
        }
      } catch (const Error&) {
        open_err[r] = std::current_exception();
      }
    });
    for (std::size_t r = 0; r < n; ++r) {
      RankStream& rs = streams[r];
      if (quarantine.holds(static_cast<Rank>(r))) continue;
      try {
        if (open_err[r]) std::rethrow_exception(open_err[r]);
        RankWalk walk(static_cast<Rank>(r), defs.comms.size(), calls,
                      comm_in[r]);
        try {
          rs.ts->scan_light([&](const Event& scanned) {
            Event e = scanned;
            const tracing::Pruned p = quarantine.apply(e);
            if (p != tracing::Pruned::No) ++rs.pruned;
            if (p != tracing::Pruned::Dropped) (void)walk.step(e);
          });
        } catch (const Error& e) {
          throw e.offset_by(rs.base);
        }
        rs.events_kept = walk.finish();
        rs.walk.emplace(calls, rs.ops);
      } catch (const Error& e) {
        throw e.with_context(
            ErrorContext{src.extents[r].path, static_cast<Rank>(r), -1});
      }
      // Sync records are materialized for the stream's whole lifetime;
      // window bytes come and go on top of this floor.
      rs.resident =
          rs.ts->sync().size() * sizeof(tracing::OffsetRecord);
      residency.adjust(static_cast<std::ptrdiff_t>(rs.resident));
    }

    comm_tables = build_comm_tables(defs, comm_in, opts.max_workers);
    telemetry::counter("prepare.ranks").add(n);
    telemetry::counter("prepare.call_paths").add(calls.size());
  }

  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install_trees(tc, calls);

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

  // Evicts the consumed window and walks the next one. The window
  // extends past its nominal size only while a Send/Recv in it still
  // awaits its enclosing call's exit, which is what guarantees every op
  // window is complete before the replay consumes the event.
  auto fill_window = [&](RankStream& rs) {
    rs.win.clear();
    rs.ops.clear();
    rs.wpos = 0;
    tracing::TraceStream& ts = *rs.ts;
    OpWalk& walk = *rs.walk;
    while (rs.ops.size() < window_events || walk.open() > 0) {
      if (rs.rpos == rs.raw.size()) {
        if (ts.at_end()) break;
        rs.raw.clear();
        rs.rpos = 0;
        try {
          ts.next(rs.raw, chunk);
        } catch (const Error& e) {
          throw e.offset_by(rs.base);
        }
        continue;
      }
      Event& e = rs.raw[rs.rpos++];
      if (quarantine.apply(e) == tracing::Pruned::Dropped) continue;
      if (walk.step(e)) rs.win.push_back(e);
    }
    MSC_CHECK(walk.open() == 0,
              "streaming window closed with unfilled message ops");
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
  // replay): per-rank exclusive times come out of the op walks.
  std::vector<std::vector<ExclusiveTime>> excl_time(n);
  for (std::size_t r = 0; r < n; ++r)
    if (streams[r].walk) excl_time[r] = streams[r].walk->exclusive_times();
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
