#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "common/error.hpp"
#include "telemetry/span.hpp"
#include "tracing/matching.hpp"

namespace metascope::analysis {

AnalysisResult analyze_serial(const tracing::TraceCollection& tc,
                              const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_serial requires synchronized timestamps");
  AnalysisResult res;
  // The serial analyzer is the single-threaded reference (and the
  // baseline benches compare against), so its prepare stays on one
  // worker too.
  const PreparedTrace prep = prepare(tc, 1);
  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install(tc, prep);

  // Post-mortem matching resolves both sides of every message; the
  // collective grouping walks each rank's op records once. Evaluation
  // order is the pattern engine's canonical order, shared with the
  // parallel analyzer. The span carries the same "replay" name as the
  // parallel analyzer's: it is the same pipeline stage, differently
  // implemented.
  telemetry::ScopedSpan replay_span("replay");
  const auto pairs = tracing::match_messages(tc);
  std::vector<P2pRecord> p2p;
  p2p.reserve(pairs.size());
  {
    // Event index -> position in the rank's op records, so a message
    // side resolves with two loads instead of a search per message.
    std::vector<std::vector<std::uint32_t>> op_at(prep.ops.size());
    for (const auto& trace : tc.ranks) {
      const auto ri = static_cast<std::size_t>(trace.rank);
      op_at[ri].resize(trace.events.size());
      for (std::uint32_t k = 0; k < prep.ops[ri].size(); ++k)
        op_at[ri][prep.ops[ri][k].index] = k;
    }
    const auto side = [&](const tracing::EventRef& ev) {
      const auto ri = static_cast<std::size_t>(ev.rank);
      return make_side(prep.calls, ev.rank,
                       prep.ops[ri][op_at[ri][ev.index]]);
    };
    for (const auto& p : pairs)
      p2p.push_back(P2pRecord{side(p.send), side(p.recv), p.recv.index});
  }

  engine.dispatch(std::move(p2p), group_collectives(tc, prep), res.stats);
  fill_trace_stats(tc, res.stats);
  return res;
}

}  // namespace metascope::analysis
