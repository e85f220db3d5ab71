// Out-of-core analysis over v3 archives on disk. Each rank's blob is
// mapped and decoded through a windowed cursor (tracing::TraceStream),
// so only bounded windows of events are resident, and the messages are
// paired by the join the materializing analyzers run
// (tracing::join_messages).
//
// Two decodes of each rank, with the join between them:
//
//  - the *light* pass (it keeps no event), one task per rank, drains the
//    rank's stream in bounded chunks and feeds every event to RankWalk,
//    the walk the materializing prepare runs: the rank's local call
//    tree, every structural check, its exclusive times and its share of
//    the CommTables. It also stores each Send and Recv as a join key
//    (envelope, ordinal among the rank's sends or receives) in one flat
//    array per side, sized from the blobs' per-type counts, and sorts
//    its own keys by envelope. Decoding every column here raises payload
//    corruption before any record is built.
//    Definition unification (CallPathPool::unify, ranks ascending over
//    call-tree nodes) then gives the materializing prepare's global ids,
//    collective completeness is validated, and the join gives every send
//    its record slot (one 4-byte index per send); the keys are freed;
//  - the *window* pass, a plain per-rank fan-out, re-opens each stream
//    and walks it again: the RankWalk rebuilds the same local tree and
//    fills each window's op records, mapped through the rank's
//    local-to-global ids. A Send writes the send half of its record slot,
//    the k-th Recv the receive half of slot recv_begin[r] + k, and a
//    CollExit its member slot. No task waits for another.
//
// A window nominally holds budget/(ranks * per-op footprint) events and
// extends only while a Send/Recv in it still awaits its enclosing
// call's exit, so tiny budgets degrade to single-event windows. Only
// the ranks the workers are on hold windows at once. Severity
// accumulation order is unchanged — same per-rank exclusive-time
// chains, same canonical dispatch — so the cube is bit-identical to
// analyze_parallel's for any budget and worker count.
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
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/page_allocator.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "tracing/matching.hpp"
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

/// Trace-resident byte accounting shared by every window-pass task: the
/// live total feeds the "analysis.stream.resident_bytes" gauge, the
/// atomic high-water mark is authoritative for AnalysisStats (it works
/// with telemetry disabled) and also raises the
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

/// What the passes keep per rank: its mapped blob (the page-aligned
/// window of its container extent), the light pass's cursor, the
/// rank's local-to-global call-path ids and its light-pass tallies.
struct RankStream {
  MappedFile file;
  /// The blob's offset in its container: cursor errors count from the
  /// blob's start, reported errors from the container's.
  std::uint64_t base{0};
  std::optional<tracing::TraceStream> ts;  ///< open until the light pass

  std::vector<CallPathId> ids;  ///< global id of each local call path

  std::size_t sends{0};  ///< kept Sends (join keys) of the rank
  std::uint64_t events_kept{0};
  std::uint64_t pruned{0};
};

using KeyArray =
    std::vector<tracing::MessageKey, PageAllocator<tracing::MessageKey>>;

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
  // their records; the floor of one event per rank keeps a pathological
  // budget from stalling (it degrades to single-event windows instead).
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
  std::vector<std::vector<ExclusiveTime>> excl_time(n);
  CommTables comm_tables;
  // Each rank's first join key per side, from the blobs' per-type counts.
  std::vector<std::size_t> send_at(n + 1, 0);
  std::vector<std::size_t> recv_at(n + 1, 0);
  KeyArray send_keys;
  KeyArray recv_keys;

  // Streaming prepare: map and open every surviving rank's blob, then
  // the light pass. Quarantined ranks stay closed and stream zero events.
  {
    telemetry::ScopedSpan span("prepare");
    // An error is stashed, not thrown, so the lowest failing rank
    // surfaces whatever the schedule. Decode errors go before walk errors,
    // as in the materialized path, whose read decodes every rank before
    // prepare walks any: a rank whose walk fails drains its stream on.
    std::vector<std::exception_ptr> decode_err(n);
    std::vector<std::exception_ptr> walk_err(n);
    const auto fail = [&](std::vector<std::exception_ptr>& err,
                          std::size_t r, const Error& e) {
      err[r] = std::make_exception_ptr(e.with_context(
          ErrorContext{src.extents[r].path, static_cast<Rank>(r), -1}));
    };
    telemetry::RecordingObserver rec_obs(
        "prepare", telemetry::RecordingObserver::fanout_stride(n));
    parallel_for(
        n, opts.max_workers,
        [&](std::size_t r) {
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
          } catch (const Error& e) {
            fail(decode_err, r, e);
            return;
          }
          send_at[r + 1] = rs.ts->sends();
          recv_at[r + 1] = rs.ts->recvs();
        },
        &rec_obs);
    for (std::size_t r = 0; r < n; ++r) {
      send_at[r + 1] += send_at[r];
      recv_at[r + 1] += recv_at[r];
    }
    send_keys.resize(send_at[n]);
    recv_keys.resize(recv_at[n]);

    CallPathPool paths(n);
    std::vector<RankComm> comm_in(n);
    parallel_for(
        n, opts.max_workers,
        [&](std::size_t r) {
          RankStream& rs = streams[r];
          if (!rs.ts) return;  // quarantined, or failed to open
          tracing::MessageKey* const send = send_keys.data() + send_at[r];
          tracing::MessageKey* const recv = recv_keys.data() + recv_at[r];
          std::size_t nrecv = 0;
          // Records are complete whenever none is open; the light pass
          // drops them there.
          std::vector<OpRecord> ops;
          RankWalk walk(static_cast<Rank>(r), defs.comms.size(), ops);
          std::vector<Event> raw;
          const auto walk_chunk = [&] {
            try {
              for (Event& e : raw) {
                const tracing::Pruned p = quarantine.apply(e);
                if (p != tracing::Pruned::No) ++rs.pruned;
                if (p == tracing::Pruned::Dropped) continue;
                ++rs.events_kept;
                const auto key = [&e](std::size_t pos) {
                  return tracing::MessageKey{e.peer, e.tag, e.comm.get(),
                                             static_cast<std::uint32_t>(pos)};
                };
                // The header's per-type counts bound both cursors: the
                // stream checked its type stream against them at open.
                if (walk.step(e)) {
                  comm_in[r].add(e);
                  if (e.type == EventType::Send) {
                    send[rs.sends] = key(rs.sends);
                    ++rs.sends;
                  } else if (e.type == EventType::Recv) {
                    recv[nrecv] = key(nrecv);
                    ++nrecv;
                  }
                }
                if (walk.open() == 0) ops.clear();
              }
            } catch (const Error& e) {
              fail(walk_err, r, e);
            }
          };
          try {
            while (rs.ts->next(raw, chunk) != 0) {
              if (!walk_err[r]) walk_chunk();
              raw.clear();
            }
          } catch (const Error& e) {
            fail(decode_err, r, e.offset_by(rs.base));
          }
          if (!decode_err[r] && !walk_err[r]) {
            try {
              walk.finish(paths);
            } catch (const Error& e) {
              fail(walk_err, r, e);
            }
          }
          rs.ts.reset();
          tracing::sort_by_envelope({send, rs.sends});
          tracing::sort_by_envelope({recv, nrecv});
        },
        &rec_obs);
    for (const auto* err : {&decode_err, &walk_err})
      for (const std::exception_ptr& e : *err)
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

  telemetry::ScopedSpan replay_span("replay");
  std::vector<P2pRecord> records(comm_tables.num_records());
  MSC_CHECK(records.size() <= std::numeric_limits<std::uint32_t>::max(),
            "too many messages for 4-byte record slots");
  // The join: rank r's j-th send fills record send_slot[send_at[r] + j].
  std::vector<std::uint32_t, PageAllocator<std::uint32_t>> send_slot(
      send_at[n]);
  {
    tracing::RankKeys sends(n);
    tracing::RankKeys recvs(n);
    for (std::size_t r = 0; r < n; ++r) {
      sends[r] = {send_keys.data() + send_at[r], streams[r].sends};
      recvs[r] = {recv_keys.data() + recv_at[r],
                  comm_tables.recv_begin[r + 1] - comm_tables.recv_begin[r]};
    }
    tracing::join_messages(
        sends, recvs, opts.max_workers,
        [&](Rank receiver, std::uint32_t recv_pos, Rank sender,
            std::uint32_t send_pos) {
          send_slot[send_at[static_cast<std::size_t>(sender)] + send_pos] =
              static_cast<std::uint32_t>(
                  comm_tables.recv_begin[static_cast<std::size_t>(receiver)] +
                  recv_pos);
        });
  }
  KeyArray().swap(send_keys);
  KeyArray().swap(recv_keys);

  CollectiveSlots slots(comm_tables);
  Residency residency;
  telemetry::Counter& windows_counter =
      telemetry::counter("analysis.stream.windows");

  // The window pass. The light pass decoded these bytes already, so no
  // decode error is left.
  const auto window_pass = [&](std::size_t r) {
    RankStream& rs = streams[r];
    if (quarantine.holds(static_cast<Rank>(r))) return;  // zero events
    const auto me = static_cast<Rank>(r);
    tracing::TraceStream ts(rs.file.data(), rs.file.size(),
                            src.extents[r].path);
    std::vector<Event> raw;
    std::vector<Event> win;  // the window's Sends, Recvs and CollExits
    std::vector<OpRecord> ops;  // their records, index-aligned
    RankWalk walk(me, defs.comms.size(), ops);
    std::vector<int> coll_seq(defs.comms.size(), 0);
    const std::uint32_t* send = send_slot.data() + send_at[r];
    const std::uint32_t* const send_end = send + rs.sends;
    std::size_t recv = comm_tables.recv_begin[r];
    std::size_t rpos = 0;
    std::uint64_t windows = 0;
    // Sync records are materialized for the stream's whole lifetime;
    // window bytes come and go on top of this floor.
    const std::size_t floor = ts.sync().size() * sizeof(tracing::OffsetRecord);
    std::size_t resident = floor;
    residency.adjust(static_cast<std::ptrdiff_t>(resident));
    for (;;) {
      // The next window. It extends past its nominal size only while a
      // Send/Recv in it still awaits its enclosing call's exit, so every
      // op window is complete before its record is written.
      win.clear();
      ops.clear();
      while (ops.size() < window_events || walk.open() > 0) {
        if (rpos == raw.size()) {
          if (ts.at_end()) break;
          raw.clear();
          rpos = 0;
          ts.next(raw, chunk);
          continue;
        }
        Event& e = raw[rpos++];
        if (quarantine.apply(e) == tracing::Pruned::Dropped) continue;
        if (walk.step(e)) win.push_back(e);
      }
      if (win.empty()) break;  // only Enter/Exit events were left
      MSC_CHECK(walk.open() == 0,
                "streaming window closed with unfilled message ops");
      ++windows;
      const std::size_t now = win.capacity() * sizeof(Event) +
                              ops.capacity() * sizeof(OpRecord) +
                              raw.capacity() * sizeof(Event) + floor;
      // Capacities go quiescent after the first few windows; skipping
      // the no-op adjust keeps the shared atomics off the steady-state
      // path.
      if (now != resident) {
        residency.adjust(static_cast<std::ptrdiff_t>(now) -
                         static_cast<std::ptrdiff_t>(resident));
        resident = now;
      }
      for (std::size_t i = 0; i < win.size(); ++i) {
        const Event& e = win[i];
        OpRecord op = ops[i];
        // The walk rebuilds the light pass's local tree, id for id.
        const auto c = static_cast<std::size_t>(op.cnode.get());
        MSC_CHECK(c < rs.ids.size(),
                  "window pass met a call path the light pass never numbered");
        op.cnode = rs.ids[c];
        switch (e.type) {
          case EventType::Send:
            MSC_CHECK(send != send_end,
                      "window pass met a send the light pass never keyed");
            records[*send++].send = make_side(calls, me, op);
            break;
          case EventType::Recv:
            MSC_CHECK(recv < comm_tables.recv_begin[r + 1],
                      "window pass met a receive prepare never counted");
            records[recv++].recv = make_side(calls, me, op);
            break;
          case EventType::CollExit: {
            const int comm = e.comm.get();
            slots.arrive(comm, coll_seq[static_cast<std::size_t>(comm)]++,
                         CollMember{me, op.op_enter, op.op_exit, op.cnode},
                         e.root, e.region);
            break;
          }
          case EventType::Enter:
          case EventType::Exit:
            break;
        }
      }
    }
    MSC_CHECK(walk.calls().size() == rs.ids.size(),
              "window pass rebuilt a different call tree");
    residency.adjust(-static_cast<std::ptrdiff_t>(resident));
    // One add per rank: per-window bumps would contend across workers
    // under tiny budgets.
    windows_counter.add(windows);
    // Unmap here, on the worker, rather than in the analyzer's epilogue:
    // a thousand munmaps overlap the still-running ranks instead of
    // serializing after the pass.
    rs.file = MappedFile();
  };
  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(n));
  const auto pst = parallel_for(n, opts.max_workers, window_pass, &rec_obs);
  res.stats.replay_workers = pst.workers;
  res.stats.replay_tasks = pst.items;

  // Region pass before dispatch — the same cube add order as the
  // materializing analyzers (install's region pass precedes their
  // dispatch), over the light pass's exclusive times.
  engine.region_pass(excl_time);
  engine.dispatch(std::move(records), slots.take(), res.stats);
  fill_replay_bytes(comm_tables, res.stats);

  std::uint64_t total_events = 0;
  std::uint64_t pruned = 0;
  for (const RankStream& rs : streams) {
    total_events += rs.events_kept;
    pruned += rs.pruned;
  }
  res.stats.events = total_events;
  // "Resident" under streaming = the high-water mark of bytes the
  // windows (plus the open streams' sync records) held at once — what
  // the memory budget bounds, not the full collection size.
  res.stats.trace_bytes_in_memory = residency.peak();
  telemetry::counter("analysis.events").add(total_events);
  telemetry::counter("analysis.trace_bytes_in_memory")
      .add(res.stats.trace_bytes_in_memory);
  if (pruned > 0)
    telemetry::counter("archive.read.pruned_events").add(pruned);
  return res;
}

}  // namespace metascope::analysis
