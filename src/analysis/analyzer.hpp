// The trace analyzers (paper §3 "Trace analysis", §4 "Parallel trace
// analysis"):
//
//  - analyze_parallel: every trace is in memory, so messages are matched
//    post mortem by a join (tracing::match_messages), and every per-rank
//    step fans out on a bounded worker pool;
//  - analyze_serial: analyze_parallel on one worker;
//  - analyze_streaming: the SCALASCA-style replay over a v3 archive. A
//    sender's windowed records are not resident when its receiver needs
//    them, so the replay protocol (replay_protocol.hpp) re-enacts the
//    communication, exchanging only the few bytes each pattern needs;
//    each rank task touches only its own local trace.
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
/// "replay.bytes", "replay.suspensions", "replay.steals",
/// "replay.requeues", ….
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
  /// (plus the always-materialized sync records) and reports the
  /// high-water mark, which is what the memory budget bounds.
  std::size_t trace_bytes_in_memory{0};
  std::size_t events{0};

  // Replay-stage counters. The scheduling ones (suspensions, steals,
  // requeues) are analyze_streaming's; the join never waits.
  /// Worker threads the replay stage used.
  std::size_t replay_workers{0};
  /// Rank tasks the replay stage drove to completion (== ranks).
  std::size_t replay_tasks{0};
  /// Times a task suspended on a Recv whose message had not been sent
  /// yet, instead of blocking a thread (collectives never suspend).
  std::size_t replay_suspensions{0};
  /// Tasks taken from another worker's run queue.
  std::size_t replay_steals{0};
  /// Tasks re-enqueued after a resume.
  std::size_t replay_requeues{0};
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
  /// analyze_streaming only: when its replay deadlocks and the flight
  /// recorder is on, dump the last N recorded events of every worker
  /// thread to stderr before throwing. 0 disables the postmortem.
  std::size_t postmortem_events{32};
  /// analyze_streaming only: cap on the decoded trace events resident
  /// across all ranks at once. Drives window *sizing* — each rank's
  /// window holds ~budget/(ranks * per-event footprint) events, floored
  /// at one event — never cross-rank blocking, so a tiny budget can
  /// degrade to single-event windows but can never deadlock the
  /// replay. A window extends past its nominal size only while a
  /// Send/Recv inside it still awaits its enclosing call's exit (in
  /// practice a handful of events: messages sit directly inside their
  /// MPI call region). 0 = a generous default window (4096 events per
  /// rank). Ignored by the materializing analyzers.
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

/// Out-of-core replay over a v3 archive: one resumable task per rank
/// decodes its trace in bounded windows straight out of the mapped file
/// (tracing::TraceStream) and re-enacts its communication over lock-free
/// per-pair channels, suspending only for a message not yet sent. Peak
/// trace-resident memory is bounded by ReplayOptions::memory_budget_bytes;
/// the severity cube is bit-identical to analyze_parallel for any budget
/// and worker count. Requires a synchronized source (or scheme None) —
/// clock correction rewrites timestamps in memory, so archives must be
/// written *after* synchronization to be streamable.
AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts = {});

}  // namespace metascope::analysis
