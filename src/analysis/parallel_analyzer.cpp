// SCALASCA-style parallel replay analysis on a bounded worker pool.
// Each application rank becomes a resumable replay task: a cursor over
// its op records (precomputed by prepare(), so Enter/Exit are never
// touched) that re-enacts the recorded communication through the shared
// replay protocol (replay_protocol.hpp). A task suspends only at
// a receive whose message has not been sent yet, so a pool sized by
// hardware concurrency drives thousands of ranks.

#include <cstddef>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/replay_protocol.hpp"
#include "common/error.hpp"
#include "telemetry/span.hpp"

namespace metascope::analysis {

AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_parallel requires synchronized timestamps");
  AnalysisResult res;
  // Definition unification assigns call-path ids serially (as
  // SCALASCA's does) so ids match the serial analyzer exactly, then
  // fans the per-rank op walk out on the worker pool. It also lays
  // out the replay's communication tables and validates collective
  // completeness.
  const PreparedTrace prep = prepare(tc, opts.max_workers);
  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install(tc, prep);

  telemetry::ScopedSpan replay_span("replay");
  ReplayProtocol replay(prep.comm, prep.calls, opts);
  // Position in each rank's op records, saved across suspensions.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(tc.num_ranks()),
                                  0);
  replay.run([&](std::size_t t) {
    const auto& events = tc.ranks[t].events;
    const std::vector<OpRecord>& ops = prep.ops[t];
    for (std::size_t k = cursor[t]; k < ops.size(); ++k) {
      if (!replay.replay(t, events[ops[k].index], ops[k])) {
        cursor[t] = k;
        return StepOutcome::Suspend;
      }
    }
    return StepOutcome::Done;
  });
  replay.finish(engine, res.stats);
  fill_trace_stats(tc, res.stats);
  return res;
}

}  // namespace metascope::analysis
