// The experiment behind fuzz_analysis_modes, shared with the corpus
// generator (tools/make_fuzz_corpus): the harness fixes its definitions,
// and the corpus seeds the harness with the trace containers of runs of
// it. Two metahosts on one shared file system, so one container holds
// every rank. The scheme is none, so both analysis modes take the
// archive as written, without clock correction.
#pragma once

#include <cstdint>

namespace metascope::fuzz {

inline constexpr const char* kAnalysisModesConfig = R"({
  "name": "fuzz-analysis-modes",
  "seed": 7,
  "topology": {
    "metahosts": [
      {"name": "A", "nodes": 1, "cpus_per_node": 2, "latency_us": 20},
      {"name": "B", "nodes": 1, "cpus_per_node": 2, "latency_us": 30}
    ],
    "external": {"latency_us": 500, "bandwidth_gbps": 1.0},
    "placement": [
      {"metahost": 0, "nodes": 1, "procs_per_node": 2},
      {"metahost": 1, "nodes": 1, "procs_per_node": 2}
    ]
  },
  "workload": {"kind": "metatrace", "coupling_steps": 2,
               "cg_iterations": 4, "field_mb_total": 8},
  "sync": "none"
})";

/// Run seeds whose containers seed the corpus. The seed moves clocks,
/// network jitter and stamping, never the program, so every run has the
/// harness's definitions.
inline constexpr std::uint64_t kAnalysisModesSeeds[] = {7, 8, 9};

}  // namespace metascope::fuzz
