// The materializing analyzer. With every trace in memory, message
// matching is a join (tracing::match_messages), not a re-enactment: the
// pipeline is prepare → join → P2pRecords → collective instances →
// dispatch, each per-rank step on up to max_workers threads and writing
// only its own slots. Records, and so the cube, are identical for every
// worker count; analyze_serial is this function on one worker.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "tracing/matching.hpp"

namespace metascope::analysis {

AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analysis requires synchronized timestamps");
  AnalysisResult res;
  const PreparedTrace prep = prepare(tc, opts.max_workers);
  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install(tc, prep);

  // The stage analyze_streaming runs as a replay.
  telemetry::ScopedSpan replay_span("replay");
  std::vector<P2pRecord> p2p;
  {
    // The join's pairs share the record slots' layout: rank r's k-th
    // receive at recv_begin[r] + k.
    const auto pairs = tracing::match_messages(tc, opts.max_workers);
    p2p.resize(pairs.size());
    const auto resolve = [&](std::size_t r) {
      std::size_t slot = prep.comm.recv_begin[r];
      for (const OpRecord& op : prep.ops[r]) {
        if (slot == prep.comm.recv_begin[r + 1]) break;
        const tracing::MessagePair& m = pairs[slot];
        if (op.index != m.recv.index) continue;
        const auto& sender = prep.ops[static_cast<std::size_t>(m.send.rank)];
        const auto send_op = std::lower_bound(
            sender.begin(), sender.end(), m.send.index,
            [](const OpRecord& o, std::uint32_t i) { return o.index < i; });
        p2p[slot++] = P2pRecord{make_side(prep.calls, m.send.rank, *send_op),
                                make_side(prep.calls, m.recv.rank, op)};
      }
    };
    telemetry::RecordingObserver rec_obs(
        "replay", telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
    const auto pst =
        parallel_for(tc.ranks.size(), opts.max_workers, resolve, &rec_obs);
    res.stats.replay_workers = pst.workers;
    res.stats.replay_tasks = pst.items;
  }
  engine.dispatch(std::move(p2p),
                  group_collectives(tc, prep, opts.max_workers), res.stats);
  fill_replay_bytes(prep.comm, res.stats);
  // The whole collection is resident, unlike analyze_streaming's windows.
  res.stats.events = tc.total_events();
  res.stats.trace_bytes_in_memory = tracing::in_memory_bytes(tc);
  telemetry::counter("analysis.events").add(res.stats.events);
  telemetry::counter("analysis.trace_bytes_in_memory")
      .add(res.stats.trace_bytes_in_memory);
  return res;
}

AnalysisResult analyze_serial(const tracing::TraceCollection& tc,
                              const ReplayOptions& opts) {
  ReplayOptions serial = opts;
  serial.max_workers = 1;
  return analyze_parallel(tc, serial);
}

}  // namespace metascope::analysis
