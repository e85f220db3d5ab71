// Chrome Trace Event export of the flight recorder (recorder.hpp).
//
// Produces the JSON object format every timeline viewer understands —
// load the file in Perfetto (ui.perfetto.dev) or chrome://tracing and
// the analyzer's own run appears as one track per recording thread:
// the main thread's track carries the pipeline-phase spans (ScopedSpan
// begin/end), each worker track carries its task slices with steal
// instants in between.
//
// Structural guarantees (validated by tests/test_telemetry_trace.cpp
// and tools/validate_chrome_trace.py in CI):
//  - every "B" has a matching "E" on the same tid (ring wrap-around can
//    orphan begins or ends; orphan ends are dropped, unclosed begins
//    are closed at the thread's last timestamp);
//  - timestamps are non-decreasing per tid (each ring is written by one
//    thread off one steady clock);
//  - drop accounting is explicit: otherData.dropped_events maps each
//    track to the number of events its ring overwrote, so a truncated
//    timeline is never mistaken for a complete one.
#pragma once

#include <string>

#include "common/json.hpp"

namespace metascope::telemetry {

/// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}
/// built from the recorder's current contents. Deterministic given the
/// same recording (tracks in thread-registration order).
[[nodiscard]] Json chrome_trace_json();

/// Writes chrome_trace_json() to `path`, creating missing parent
/// directories; throws Error (path + errno detail) on unwritable
/// output. This is what `msc_run --trace-out` calls.
void save_chrome_trace(const std::string& path);

}  // namespace metascope::telemetry
