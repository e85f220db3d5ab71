// Ablation A1 — serial vs parallel analysis (the message join on one and
// on all workers): identical cubes; the data volume a distributed replay
// moves vs total trace volume (the paper's "avoids costly copying of
// trace data between metahosts"), and wall-clock on this host.
#include <chrono>
#include <cstdio>

#include "analysis/analyzer.hpp"
#include "clocksync/correction.hpp"
#include "common/table.hpp"
#include "harness_util.hpp"
#include "simnet/presets.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

using namespace metascope;

int main() {
  bench::banner("Ablation A1", "serial vs parallel trace analysis");

  bench::BenchReport report("ablate_analyzer");
  TextTable t({"coupling steps", "events", "trace mem bytes", "replay bytes",
               "replay/trace", "serial [ms]", "parallel [ms]",
               "cubes equal"});
  for (int steps : {2, 4, 8}) {
    workloads::MetaTraceConfig mt;
    mt.coupling_steps = steps;
    const auto topo = simnet::make_viola_experiment1();
    const auto prog = workloads::build_metatrace(mt);
    workloads::ExperimentConfig cfg;
    auto data = workloads::run_experiment(topo, prog, cfg);
    clocksync::synchronize(data.traces);

    const auto t0 = std::chrono::steady_clock::now();
    const auto s = analysis::analyze_serial(data.traces);
    const auto t1 = std::chrono::steady_clock::now();
    const auto p = analysis::analyze_parallel(data.traces);
    const auto t2 = std::chrono::steady_clock::now();

    const double serial_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double parallel_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    t.add_row({std::to_string(steps), std::to_string(p.stats.events),
               std::to_string(p.stats.trace_bytes_in_memory),
               std::to_string(p.stats.replay_bytes),
               TextTable::percent(
                   static_cast<double>(p.stats.replay_bytes) /
                   static_cast<double>(p.stats.trace_bytes_in_memory)),
               TextTable::fixed(serial_ms, 1),
               TextTable::fixed(parallel_ms, 1),
               s.cube.approx_equal(p.cube, 1e-12) ? "yes" : "NO"});
    report.add_row("ablation",
                   Json{Json::Object{}}
                       .set("coupling_steps", Json(steps))
                       .set("events", Json(p.stats.events))
                       .set("trace_bytes_in_memory",
                            Json(p.stats.trace_bytes_in_memory))
                       .set("replay_bytes", Json(p.stats.replay_bytes))
                       .set("serial_ms", Json(serial_ms))
                       .set("parallel_ms", Json(parallel_ms))
                       .set("cubes_equal",
                            Json(s.cube.approx_equal(p.cube, 1e-12))));
  }
  std::printf("%s", t.render().c_str());
  bench::note(
      "\nShape check: a distributed replay (analyze_streaming) exchanges a\n"
      "fraction of the trace volume — each analysis process reads only\n"
      "its local trace data, so no shared file system and no bulk trace\n"
      "copying between metahosts is needed (paper Sections 3-4). Parallel\n"
      "wall-clock on this 1-core host reflects thread overhead, not the\n"
      "metacomputer speedup.");
  report.write();
  return 0;
}
