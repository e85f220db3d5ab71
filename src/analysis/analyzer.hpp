// The trace analyzers (paper §3 "Trace analysis", §4 "Parallel trace
// analysis"):
//
//  - analyze_parallel: every trace is in memory, so messages are matched
//    post mortem by a join (tracing::match_messages), and every per-rank
//    step fans out on a bounded worker pool;
//  - analyze_serial: analyze_parallel on one worker;
//  - analyze_streaming: the same analysis over a v3 archive, one rank's
//    windowed stream per task. A light pass collects each rank's join
//    keys, the join (tracing::join_messages, as in analyze_parallel)
//    gives every send its record slot, and a window pass fills the
//    records; no task waits for another.
//
// All of them walk each rank in parallel for its call paths and op
// records (prepare.hpp's RankWalk), unify the call paths in rank order,
// and collect match records into the shared replay core
// (replay_core.hpp), which evaluates the pattern formulas in one
// canonical order: the cubes are bit-identical, and tests enforce it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing {
struct StreamSource;  // tracing/stream.hpp
}

namespace metascope::analysis {

/// Per-analysis summary counters, exact whether or not telemetry is
/// enabled. Each run also adds them to the global metrics registry
/// (src/telemetry): "analysis.messages", "analysis.events",
/// "replay.bytes", ….
struct AnalysisStats {
  std::size_t messages{0};
  std::size_t collective_instances{0};
  /// Bytes a distributed replay moves: 24 per message and per collective
  /// member. Compare against trace_bytes_in_memory: the paper's claim is
  /// that this is much smaller than shipping traces around.
  std::size_t replay_bytes{0};
  /// Resident size of the trace data the analysis held at its peak —
  /// deliberately NOT the encoded on-disk size, which depends on the
  /// trace format version and is accounted separately by the archive
  /// layer (telemetry counters archive.bytes_on_disk / .read.bytes).
  /// Materializing analyzers report tracing::in_memory_bytes of the
  /// whole collection; analyze_streaming counts only resident windows
  /// (plus the open streams' sync records) and reports the high-water
  /// mark, which is what the memory budget bounds. Match records are
  /// O(messages) in both modes and not in this figure.
  std::size_t trace_bytes_in_memory{0};
  std::size_t events{0};

  /// Worker threads the replay stage used.
  std::size_t replay_workers{0};
  /// Rank tasks the replay stage ran (== ranks).
  std::size_t replay_tasks{0};
  /// Always 0: no analyzer suspends or reschedules a task. Kept while
  /// metabench still reports them.
  std::size_t replay_suspensions{0};
  std::size_t replay_steals{0};
};

struct AnalysisResult {
  report::Cube cube;
  PatternSet patterns;
  AnalysisStats stats;
};

/// Tuning knobs shared by the analyzers.
struct ReplayOptions {
  /// Worker-pool size cap; 0 = std::thread::hardware_concurrency().
  /// The pool never exceeds the rank count. Tests pin this to exercise
  /// specific schedules (e.g. a 2-worker pool over 1024 ranks).
  /// analyze_serial always uses 1.
  std::size_t max_workers{0};
  /// Pattern-detector keys to enable (PatternRegistry::standard keys,
  /// e.g. "late_sender", "barrier_completion"). Empty = all detectors.
  /// The structural category time partition is always on. Throws Error
  /// on an unknown key.
  std::vector<std::string> patterns;
  /// analyze_streaming only: cap on the decoded trace events resident
  /// across all ranks at once. Sizes the windows — each rank's window
  /// holds ~budget/(ranks * per-event footprint) events, floored at one
  /// event, so a tiny budget degrades to single-event windows. A window
  /// extends past its nominal size only while a Send/Recv inside it
  /// still awaits its enclosing call's exit (in practice a handful of
  /// events: messages sit directly inside their MPI call region). Only
  /// the ranks the workers are on hold windows at once. Match records
  /// (one per message) are not events and are not bounded by it. 0 = a
  /// generous default window (4096 events per rank). Ignored by the
  /// materializing analyzers.
  std::size_t memory_budget_bytes{0};
};

/// analyze_parallel on one worker.
AnalysisResult analyze_serial(const tracing::TraceCollection& tc,
                              const ReplayOptions& opts = {});

/// Pattern search over a materialized collection: prepare, message join,
/// collective grouping and dispatch on a bounded worker pool; the cube is
/// identical for every worker count. Requires a synchronized collection
/// (or scheme None, whose clocks are the engine's own).
AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts = {});

/// Out-of-core analysis over a v3 archive: each rank decodes its trace in
/// bounded windows straight out of the mapped file (tracing::TraceStream),
/// twice — a light pass that collects its join keys, and after the join a
/// window pass that writes its halves of the match records. Decoded
/// events are bounded by ReplayOptions::memory_budget_bytes; the severity
/// cube is bit-identical to analyze_parallel for any budget and worker
/// count, and an unmatched send or receive raises the join's Error.
/// Requires a synchronized source (or scheme None) — clock correction
/// rewrites timestamps in memory, so archives must be written *after*
/// synchronization to be streamable.
AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts = {});

}  // namespace metascope::analysis
