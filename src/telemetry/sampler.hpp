// Time-resolved metrics sampler: a background thread that snapshots the
// registry's counters, dcounters, and gauges every `interval_ms`,
// building the time-series the end-of-run aggregates cannot express —
// how the streamed window count and resident bytes grow, how steal
// traffic ramps as a stage drains, whether progress stalls.
//
// The samples land in the telemetry snapshot as a "timeseries" section
// (snapshot.hpp), so `msc_run --metrics --sample-interval-ms=<n>`
// delivers both views in one JSON document. Sampling reads the same
// sharded cells a snapshot reads — it never contends with the hot-path
// writers. Sample count is capped (kMaxSamples) so a long run cannot
// grow the series without bound; truncation is flagged, never silent.
#pragma once

#include "common/json.hpp"

namespace metascope::telemetry {

/// Starts the sampler thread (no-op if already running or
/// `interval_ms` <= 0). Clears samples from any previous run.
void start_sampler(int interval_ms);

/// Stops and joins the sampler thread; the collected samples remain
/// available to sampler_json(). Safe to call when not running.
void stop_sampler();

[[nodiscard]] bool sampler_running();

/// {"interval_ms": n, "truncated": bool, "samples": [{"t_s": ...,
///  "counters": {...}, "dcounters": {...}, "gauges": {...}}, ...]}
/// or null if the sampler never ran (snapshot_json then omits the
/// "timeseries" section).
[[nodiscard]] Json sampler_json();

/// Drops all collected samples (telemetry::reset calls this).
void clear_samples();

}  // namespace metascope::telemetry
