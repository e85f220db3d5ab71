// Out-of-core streaming replay: the SCALASCA-style parallel analysis
// of parallel_analyzer.cpp, re-targeted at v3 archives on disk instead
// of materialized event vectors. Each rank task owns a windowed cursor
// (tracing::TraceStream) over its mapped trace file and decodes one
// bounded window of communication events at a time; a consumed window
// is evicted before the next one is brought in, so peak trace-resident
// memory is ~ budget instead of ~ trace size.
//
// Two streaming passes replace prepare():
//
//  - a *light* pass (serial, ranks in order) over the type/time/region/
//    comm/peer columns only: call-path ids are assigned by the identical
//    get_or_add walk the materializing prepare runs, every structural
//    check fires with the identical diagnostic, and each rank's
//    communication is counted for the replay's CommTables (collective
//    completeness is validated there, before any task runs);
//  - the *window* pass inside each replay task: per-event annotation
//    (call-path tags via CallTree::find against the tree the light pass
//    built, enclosing-op windows, exclusive times) happens as events
//    decode, and only annotated communication events are retained.
//
// A window nominally holds budget/(ranks * per-event footprint) events
// and extends only while a Send/Recv in it still awaits its enclosing
// call's exit; the budget drives window *sizing*, never cross-rank
// blocking, so tiny budgets degrade to single-event windows but cannot
// deadlock. Severity accumulation order is unchanged — same per-rank
// exclusive-time chains, same canonical dispatch — so the cube is
// bit-identical to analyze_serial / analyze_parallel for any budget.
//
// Permissive sources (StreamSource::quarantined) are filtered on the
// fly, mirroring tracing::prune_quarantined: events of quarantined
// ranks never decode, surviving ranks drop Send/Recv with a
// quarantined peer, and CollExit on a communicator containing one
// degrades to a plain Exit.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
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

/// One annotated communication event resident in a rank's window.
struct WinEvent {
  Event e;
  CallPathId cnode;
  double op_enter{0.0};
  double op_exit{0.0};
  /// Position in the rank's filtered event stream — the canonical
  /// receive-order sort key (monotone per rank, like the materialized
  /// analyzers' raw event index over the pruned collection).
  std::uint32_t index{0};
};

/// Quarantine filtering state, mirroring tracing::prune_quarantined.
struct QuarantineFilter {
  std::vector<char> rank_q;  ///< by rank: events of these never decode
  std::vector<char> comm_q;  ///< by comm: collectives here degrade

  [[nodiscard]] bool drop_msg(std::int64_t peer) const {
    return peer >= 0 && peer < static_cast<std::int64_t>(rank_q.size()) &&
           rank_q[static_cast<std::size_t>(peer)] != 0;
  }
  [[nodiscard]] bool degrade_coll(std::int64_t comm) const {
    return comm >= 0 && comm < static_cast<std::int64_t>(comm_q.size()) &&
           comm_q[static_cast<std::size_t>(comm)] != 0;
  }
};

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

/// One open frame of the window pass's region stack.
struct Frame {
  CallPathId cnode;
  double enter_time{0.0};
  double child_time{0.0};
  /// Window slots of Send/Recv events awaiting this frame's exit.
  std::vector<std::uint32_t> open_ops;
};

/// Everything one rank task owns: the mapped file and its windowed
/// cursor, the persistent annotation state bridging windows, and the
/// current window.
struct RankStream {
  MappedFile file;
  std::optional<tracing::TraceStream> ts;  ///< nullopt: quarantined rank

  // Decoded-but-unannotated lookahead ring (bounded by kMaxDecodeChunk).
  std::vector<Event> raw;
  std::size_t rpos{0};

  // Annotation state, persistent across windows.
  std::vector<Frame> stack;
  std::size_t open_ops{0};      ///< unfilled Send/Recv in current window
  std::map<int, double> excl;   ///< per-cnode exclusive seconds
  std::uint32_t next_index{0};  ///< filtered-stream position

  // Current window.
  std::vector<WinEvent> win;
  std::size_t wpos{0};
  std::size_t resident{0};       ///< bytes this rank currently accounts
  std::uint32_t windows_filled{0};

  // Tallies from the light pass.
  std::uint64_t events_kept{0};
  std::uint64_t pruned{0};
};

[[noreturn]] void fail_at(Rank rank, std::uint32_t i, const char* what) {
  std::ostringstream os;
  os << "malformed trace: rank " << rank << " event " << i << ": " << what;
  throw Error(os.str());
}

/// The light pass over one rank: the identical serial walk prepare()'s
/// pass 1 runs — get_or_add at every Enter, every structural check with
/// the identical diagnostic — plus the rank's share of the replay's
/// communication tables (prepare()'s pass 2 counts the same). Quarantine
/// filtering is applied first, so indices in diagnostics match the
/// pruned collection's.
void light_pass(Rank rank, const tracing::TraceStream& ts,
                const QuarantineFilter& filt, report::CallTree& calls,
                RankComm& rc, RankStream& rs) {
  struct Open {
    CallPathId cnode;
    double enter_time;
  };
  std::vector<Open> stack;
  std::uint32_t idx = 0;
  ts.scan_light([&](const tracing::LightEvent& le) {
    EventType type = le.type;
    if ((type == EventType::Send || type == EventType::Recv) &&
        filt.drop_msg(le.peer)) {
      ++rs.pruned;
      return;
    }
    if (type == EventType::CollExit && filt.degrade_coll(le.comm)) {
      type = EventType::Exit;
      ++rs.pruned;
    }
    switch (type) {
      case EventType::Enter: {
        const CallPathId parent =
            stack.empty() ? CallPathId{} : stack.back().cnode;
        const CallPathId c =
            calls.get_or_add(parent, RegionId{static_cast<int>(le.region)});
        stack.push_back(Open{c, le.time});
        break;
      }
      case EventType::Exit:
      case EventType::CollExit: {
        if (stack.empty()) fail_at(rank, idx, "Exit without Enter");
        if (le.time - stack.back().enter_time < 0.0)
          fail_at(rank, idx, "negative region duration");
        if (type == EventType::CollExit) {
          if (le.comm < 0 ||
              static_cast<std::size_t>(le.comm) >= rc.colls.size())
            fail_at(rank, idx, "collective on an unknown communicator");
          ++rc.colls[static_cast<std::size_t>(le.comm)];
        }
        stack.pop_back();
        break;
      }
      case EventType::Send:
      case EventType::Recv: {
        if (stack.empty())
          fail_at(rank, idx, "message event outside any region");
        if (type == EventType::Send)
          rc.send_peers.push_back(static_cast<Rank>(le.peer));
        else
          ++rc.recvs;
        break;
      }
    }
    ++idx;
  });
  if (!stack.empty()) fail_at(rank, idx, "unclosed region");
  rs.events_kept = idx;
}

}  // namespace

AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts) {
  const tracing::TraceCollection& tc = src.defs;
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_streaming requires synchronized timestamps");
  const auto n = static_cast<std::size_t>(tc.num_ranks());
  MSC_CHECK(src.paths.size() == n, "stream source paths/defs mismatch");
  const tracing::TraceDefs& defs = tc.defs;

  QuarantineFilter filt;
  filt.rank_q.assign(n, 0);
  for (const Rank r : src.quarantined)
    filt.rank_q[static_cast<std::size_t>(r)] = 1;
  filt.comm_q.assign(defs.comms.size(), 0);
  for (const auto& comm : defs.comms)
    for (const Rank r : comm.members)
      if (filt.rank_q[static_cast<std::size_t>(r)] != 0)
        filt.comm_q[static_cast<std::size_t>(comm.id.get())] = 1;

  AnalysisResult res;
  report::CallTree calls;
  const RegionClassTable region_table(defs.regions);
  std::vector<RankStream> streams(n);
  std::vector<RankComm> comm_in(n);
  CommTables comm_tables;
  Residency residency;
  telemetry::Counter& windows_counter =
      telemetry::counter("analysis.stream.windows");

  // Streaming prepare: open every surviving rank's file and run the
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
      if (filt.rank_q[r] != 0) return;
      RankStream& rs = streams[r];
      try {
        rs.file = MappedFile::open(src.paths[r], src.use_mmap);
        rs.ts.emplace(rs.file.data(), rs.file.size(), src.paths[r]);
      } catch (const Error&) {
        open_err[r] = std::current_exception();
      }
    });
    for (std::size_t r = 0; r < n; ++r) {
      RankStream& rs = streams[r];
      if (filt.rank_q[r] != 0) continue;
      try {
        if (open_err[r]) std::rethrow_exception(open_err[r]);
        comm_in[r].colls.assign(defs.comms.size(), 0);
        light_pass(static_cast<Rank>(r), *rs.ts, filt, calls, comm_in[r],
                   rs);
      } catch (const Error& e) {
        throw e.with_context(
            ErrorContext{src.paths[r], static_cast<Rank>(r), -1});
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
  res.patterns = engine.install_trees(tc, calls, region_table);

  // Window sizing: the budget bounds the bytes of annotated events
  // resident across all ranks at once; the floor of one event per rank
  // keeps a pathological budget from stalling (it degrades to
  // single-event windows instead).
  const std::size_t window_events =
      opts.memory_budget_bytes == 0
          ? kDefaultWindowEvents
          : std::max<std::size_t>(
                1, opts.memory_budget_bytes /
                       (std::max<std::size_t>(n, 1) * sizeof(WinEvent)));
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min(window_events, kMaxDecodeChunk));

  // Evicts the consumed window and decodes + annotates the next one.
  // The window extends past its nominal size only while a Send/Recv in
  // it still awaits its enclosing call's exit, which is what guarantees
  // every op window is complete before the replay consumes the event.
  auto fill_window = [&](RankStream& rs) {
    rs.win.clear();
    rs.wpos = 0;
    tracing::TraceStream& ts = *rs.ts;
    while (rs.win.size() < window_events || rs.open_ops > 0) {
      if (rs.rpos == rs.raw.size()) {
        if (ts.at_end()) break;
        rs.raw.clear();
        rs.rpos = 0;
        ts.next(rs.raw, chunk);
        continue;
      }
      const Event& e = rs.raw[rs.rpos++];
      EventType type = e.type;
      if ((type == EventType::Send || type == EventType::Recv) &&
          filt.drop_msg(e.peer))
        continue;
      if (type == EventType::CollExit && filt.degrade_coll(e.comm.get()))
        type = EventType::Exit;
      switch (type) {
        case EventType::Enter: {
          const CallPathId parent =
              rs.stack.empty() ? CallPathId{} : rs.stack.back().cnode;
          const CallPathId c = calls.find(parent, e.region);
          MSC_CHECK(c.valid(), "streaming window pass met a call path "
                               "the light pass never created");
          rs.stack.push_back(Frame{c, e.time, 0.0, {}});
          break;
        }
        case EventType::Exit:
        case EventType::CollExit: {
          Frame f = std::move(rs.stack.back());
          rs.stack.pop_back();
          const double dur = e.time - f.enter_time;
          rs.excl[f.cnode.get()] += dur - f.child_time;
          if (!rs.stack.empty()) rs.stack.back().child_time += dur;
          for (const std::uint32_t slot : f.open_ops) {
            rs.win[slot].op_enter = f.enter_time;
            rs.win[slot].op_exit = e.time;
          }
          rs.open_ops -= f.open_ops.size();
          if (type == EventType::CollExit) {
            WinEvent w;
            w.e = e;
            w.cnode = f.cnode;
            w.op_enter = f.enter_time;
            w.op_exit = e.time;
            w.index = rs.next_index;
            rs.win.push_back(w);
          }
          break;
        }
        case EventType::Send:
        case EventType::Recv: {
          WinEvent w;
          w.e = e;
          w.cnode = rs.stack.back().cnode;
          w.index = rs.next_index;
          rs.win.push_back(w);
          rs.stack.back().open_ops.push_back(
              static_cast<std::uint32_t>(rs.win.size() - 1));
          ++rs.open_ops;
          break;
        }
      }
      ++rs.next_index;
    }
    MSC_CHECK(rs.open_ops == 0,
              "streaming window closed with unfilled message ops");
    const std::size_t now =
        rs.win.capacity() * sizeof(WinEvent) +
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

  auto step = [&](std::size_t ti) -> StepResult {
    RankStream& rs = streams[ti];
    if (!rs.ts) return StepResult::Done;  // quarantined: zero events
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
          // Unmap here, on the worker, rather than in the analyzer's
          // epilogue: the stream is consumed, and a thousand munmaps
          // overlap the still-running ranks instead of serializing
          // after the replay. The cursor borrows the mapping's bytes,
          // so it goes first.
          rs.ts.reset();
          rs.file = MappedFile();
          windows_counter.add(rs.windows_filled);
          rs.windows_filled = 0;
          return StepResult::Done;
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
          return StepResult::Suspend;
        }
        continue;
      }
      const WinEvent& w = rs.win[rs.wpos];
      if (!replay.replay(ti, w.e, w.op_enter, w.op_exit, w.cnode, w.index))
        return StepResult::Suspend;
      ++rs.wpos;
    }
  };

  replay.run(step);

  // Region pass before dispatch — the same cube add order as the
  // materializing analyzers (install's region pass precedes their
  // replay): per-rank exclusive times come out of the window pass's
  // accumulators, sorted by call-path id (map iteration order).
  std::vector<std::vector<ExclusiveTime>> excl_time(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto& et = excl_time[r];
    et.reserve(streams[r].excl.size());
    for (const auto& [cnode, seconds] : streams[r].excl)
      et.push_back(ExclusiveTime{CallPathId{cnode}, seconds});
  }
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
