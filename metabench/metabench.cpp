// metabench — the MetaScope benchmark harness.
//
// One repetition runs the whole tool on one workload, through the public
// entry point of every module and nothing else:
//
//   measure: simmpi::execute -> tracing::collect_traces ->
//            archive::ExperimentArchive::create + write_traces (raw v3)
//   analyze: read_traces -> clocksync::synchronize ->
//            analysis::analyze_parallel                   (materialized)
//            or write a synchronized archive -> stream_source ->
//            analysis::analyze_streaming                  (out of core)
//            -> report::render_report -> report::save_cube
//
// Every worker-count argument is pinned to half the CPUs the process may
// run on (its affinity mask). Each repetition's
// cube is compared bit for bit (tolerance 0) against a reference that
// set-up computes once with analyze_serial over the synchronized
// in-memory traces; a mismatch or an exception fails the repetition, and
// any failed repetition makes the run exit non-zero.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced repetitions: traced ones record the harness's own
// spans around each public call (kept in memory, written to --spans-out
// at the end), plus single-layer probes run outside the two phases, and
// the run reports per-layer medians. Nothing inside src/ is instrumented.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "archive/archive.hpp"
#include "clocksync/clock_condition.hpp"
#include "clocksync/correction.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "report/cubexml.hpp"
#include "report/render.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/program.hpp"
#include "simnet/clock.hpp"
#include "simnet/topology.hpp"
#include "telemetry/metrics.hpp"
#include "tracing/measurement.hpp"
#include "workloads/metatrace.hpp"

using namespace metascope;
namespace fs = std::filesystem;

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Set-ups timed per run: one before the timed window, the rest spread
/// evenly across it, so their median samples the machine's slow and fast
/// stretches alike.
constexpr std::size_t kSetupRepeats = 7;
/// Repetitions that must lie beyond the reported tail percentile.
constexpr std::size_t kTailBeyond = 10;
/// Minimum share of a phase's wall time the layer spans must cover.
constexpr double kMinCoverage = 0.90;

// ---------------------------------------------------------------------------
// Span ledger: the harness's own spans, kept in memory, written at the end.

struct SpanRecord {
  const char* name;
  int parent;  ///< index into the ledger, -1 for a root
  int rep;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Ledger {
 public:
  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, rep_, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }
  void set_rep(int rep) { rep_ = rep; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin_)
        .count();
  }

  SteadyClock::time_point origin_{SteadyClock::now()};
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int rep_{0};
};

/// Times a scope; records it in the ledger when one is given (traced
/// repetitions), so untraced repetitions pay two clock reads per span.
class Span {
 public:
  Span(Ledger* ledger, const char* name)
      : ledger_(ledger), id_(ledger ? ledger->begin(name) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double end() {
    if (!done_) {
      seconds_ = std::chrono::duration<double>(SteadyClock::now() - t0_)
                     .count();
      if (ledger_) ledger_->end(id_);
      done_ = true;
    }
    return seconds_;
  }

 private:
  Ledger* ledger_;
  int id_;
  SteadyClock::time_point t0_{SteadyClock::now()};
  bool done_{false};
  double seconds_{0.0};
};

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  bool streaming{false};
  simnet::Topology topo;
  simmpi::Program prog;
  simnet::ClockSet clocks;
  simmpi::EngineConfig engine;
  tracing::MeasurementConfig measurement;
};

/// The paper's coupled MetaTrace run on two sites of `nodes` x 2 CPUs:
/// Trace on the fast site, Partrace on the slow one, a 950 us WAN between.
simnet::Topology metatrace_topology(int nodes) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "Alpha";
  a.num_nodes = nodes;
  a.cpus_per_node = 2;
  a.speed_factor = 1.0;
  a.internal = simnet::LinkSpec{25e-6, 1e-6, 1.0e9};
  simnet::MetahostSpec b;
  b.name = "Beta";
  b.num_nodes = nodes;
  b.cpus_per_node = 2;
  b.speed_factor = 0.6;
  b.internal = simnet::LinkSpec{40e-6, 1.5e-6, 0.5e9};
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib,
                         simnet::LinkSpec{950e-6, 4e-6, 1.25e9, 0.08});
  topo.place_block(ia, nodes, 2);
  topo.place_block(ib, nodes, 2);
  return topo;
}

/// Two sites of `per_side` single-CPU nodes (bench_pipeline_scaling's).
simnet::Topology collective_topology(int per_side) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "SiteA";
  a.num_nodes = per_side;
  a.speed_factor = 0.8;
  a.internal = simnet::LinkSpec{50e-6, 1e-6, 0.5e9};
  simnet::MetahostSpec b;
  b.name = "SiteB";
  b.num_nodes = per_side;
  b.speed_factor = 1.0;
  b.internal = simnet::LinkSpec{21.5e-6, 0.8e-6, 1.4e9};
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{988e-6, 3.86e-6, 1.25e9});
  topo.place_block(ia, per_side, 1);
  topo.place_block(ib, per_side, 1);
  return topo;
}

/// Ring shift + barrier + allreduce per step: many ranks, few events each.
simmpi::Program collective_program(int nranks, int steps) {
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    for (Rank r = 0; r < nranks; ++r) {
      b.on(r).enter("ring").send((r + 1) % nranks, s, 2048.0);
      b.on(r).recv((r + nranks - 1) % nranks, s).exit();
    }
    for (Rank r = 0; r < nranks; ++r)
      b.on(r).compute(1e-4 * (r % 7)).barrier();
    for (Rank r = 0; r < nranks; ++r) b.on(r).allreduce(512.0);
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

simmpi::Program metatrace_program(bool tiny) {
  workloads::MetaTraceConfig mt;
  if (tiny) {
    mt.trace_ranks = mt.partrace_ranks = 8;
    mt.dims[0] = mt.dims[1] = mt.dims[2] = 2;
    mt.coupling_steps = 2;
    mt.cg_iterations = 5;
  } else {
    mt.trace_ranks = mt.partrace_ranks = 256;
    mt.dims[0] = 8;
    mt.dims[1] = 8;
    mt.dims[2] = 4;
    mt.coupling_steps = 8;
    mt.cg_iterations = 40;
  }
  return workloads::build_metatrace(mt);
}

/// Builds a workload; `seed` drives the engine, clock and measurement
/// RNGs, so the program's inputs are a pure function of the seed.
/// `stream-512` is the MetaTrace run, analyzed out of core.
Workload build_workload(const std::string& name, std::uint64_t seed,
                        bool tiny) {
  const bool collective = name == "collective-2048";
  simnet::Topology topo = collective ? collective_topology(tiny ? 16 : 1024)
                                     : metatrace_topology(tiny ? 4 : 128);
  simmpi::Program prog =
      collective ? collective_program(topo.num_ranks(), tiny ? 3 : 40)
                 : metatrace_program(tiny);
  const Rng root(seed);
  Rng clock_rng = root.split(1);
  simnet::ClockSet clocks = simnet::ClockSet::randomized(
      topo, simnet::ClockCharacteristics{}, clock_rng);
  Workload w{name, !collective, std::move(topo), std::move(prog),
             std::move(clocks), {}, {}};
  w.engine.seed = root.split(2).next_u64();
  w.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;
  w.measurement.seed = root.split(3).next_u64();
  return w;
}

// ---------------------------------------------------------------------------
// Process measurements.

/// The number of CPUs in this process's affinity mask.
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Returns freed heap to the OS and resets the resident high-water mark,
/// so the next VmHWM read covers only what runs after this call.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The sample at the highest percentile that still has kTailBeyond
/// samples above it (the median when there are too few samples).
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx =
      n > 2 * kTailBeyond ? n - kTailBeyond - 1 : (n - 1) / 2;
  return {v[idx],
          100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

// ---------------------------------------------------------------------------
// The benchmark proper.

struct Setup {
  Workload w;
  report::Cube reference;
  std::size_t events{0};
  std::uint64_t messages{0};
  std::size_t trace_bytes{0};
  std::size_t memory_budget{0};
};

Setup set_up(const std::string& name, std::uint64_t seed, bool tiny,
             const fs::path& work, std::size_t workers) {
  Setup s{build_workload(name, seed, tiny), report::Cube{}};
  fs::remove_all(work);
  fs::create_directories(work / "raw");
  fs::create_directories(work / "resync");
  fs::create_directories(work / "cube");
  const auto exec = simmpi::execute(s.w.topo, s.w.prog, s.w.engine);
  auto tc = tracing::collect_traces(s.w.topo, s.w.clocks, s.w.prog, exec,
                                    s.w.measurement);
  clocksync::synchronize(tc, workers);
  s.reference = analysis::analyze_serial(tc).cube;
  s.events = tc.total_events();
  s.messages = exec.stats.messages;
  s.trace_bytes = tracing::in_memory_bytes(tc);
  s.memory_budget = s.trace_bytes / 32;
  return s;
}

/// One analyze phase over an archive.
struct Analysis {
  std::string error;  ///< empty when the cube matched the reference
  double wall_s{0.0};
  double cpu_s{0.0};
  double peak_rss_mb{0.0};
  double resync_bytes{0.0};
  double stream_windows{0.0};
  analysis::AnalysisStats stats;
};

/// One measure phase and the analyze phases run over its archive.
struct Repetition {
  std::string error;  ///< measure phase or probe failure
  double measure_s{0.0};
  double raw_bytes{0.0};
  std::vector<Analysis> analyses;
  double violations{0.0};  ///< single-layer probe (traced repetitions only)
};

class Bench {
 public:
  Bench(Setup setup, fs::path work, std::size_t workers)
      : s_(std::move(setup)), work_(std::move(work)), workers_(workers) {}

  const Setup& setup() const { return s_; }

  /// One measure phase, then `analyses` analyze phases over its archive;
  /// with a ledger, also records spans and runs the single-layer probes.
  Repetition run(Ledger* ledger, int analyses) {
    Repetition r;
    try {
      fs::remove_all(work_ / "raw");
      const archive::ExperimentArchive raw = measure(ledger, r);
      r.raw_bytes = static_cast<double>(tree_bytes(work_ / "raw"));
      for (int i = 0; i < analyses; ++i) {
        // Every file an analysis writes is new: rewriting one in place
        // makes ext4 flush it on close, which would time the disk.
        fs::remove_all(work_ / "resync");
        fs::remove(cube_path());
        Analysis& a = r.analyses.emplace_back();
        try {
          analyze(raw, ledger, a);
        } catch (const std::exception& e) {
          a.error = e.what();
        }
      }
      if (ledger) probe(raw, ledger, r);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    return r;
  }

 private:
  archive::FileSystemLayout layout(const char* sub) const {
    return archive::FileSystemLayout::per_metahost((work_ / sub).string(),
                                                   s_.w.topo.num_metahosts());
  }
  fs::path cube_path() const { return work_ / "cube" / "result.cubex"; }
  archive::ReadOptions read_options() const {
    archive::ReadOptions o;
    o.max_workers = workers_;
    return o;
  }
  archive::WriteOptions write_options() const {
    archive::WriteOptions o;
    o.max_workers = workers_;
    return o;
  }

  archive::ExperimentArchive measure(Ledger* ledger, Repetition& r) const {
    const Workload& w = s_.w;
    Span phase(ledger, "phase.measure");
    simmpi::ExecResult exec;
    {
      Span s(ledger, "simmpi.execute");
      exec = simmpi::execute(w.topo, w.prog, w.engine);
    }
    tracing::TraceCollection tc;
    {
      Span s(ledger, "tracing.collect");
      tc = tracing::collect_traces(w.topo, w.clocks, w.prog, exec,
                                   w.measurement);
    }
    std::optional<archive::ExperimentArchive> ar;
    {
      Span s(ledger, "archive.create");
      ar = archive::ExperimentArchive::create(w.topo, layout("raw"), w.name);
    }
    {
      Span s(ledger, "archive.write");
      ar->write_traces(w.topo, tc, write_options());
    }
    r.measure_s = phase.end();
    return std::move(*ar);
  }

  void analyze(const archive::ExperimentArchive& raw, Ledger* ledger,
               Analysis& a) const {
    const Workload& w = s_.w;
    analysis::ReplayOptions aopts;
    aopts.max_workers = workers_;
    auto& windows = telemetry::counter("analysis.stream.windows");

    const bool rss_reset = reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const std::uint64_t windows0 = windows.value();
    Span phase(ledger, "phase.analyze");
    tracing::TraceCollection tc;
    {
      Span s(ledger, "archive.read");
      tc = raw.read_traces(read_options());
    }
    {
      Span s(ledger, "clocksync.synchronize");
      clocksync::synchronize(tc, workers_);
    }
    analysis::AnalysisResult res;
    if (!w.streaming) {
      Span s(ledger, "analysis.replay");
      res = analysis::analyze_parallel(tc, aopts);
    } else {
      // Streaming replays timestamps as stored, so the synchronized
      // traces go to a second archive first; the in-memory copy is then
      // dropped, as an out-of-core analysis would.
      std::optional<archive::ExperimentArchive> resync;
      {
        Span s(ledger, "archive.resync_create");
        resync = archive::ExperimentArchive::create(w.topo, layout("resync"),
                                                    w.name);
      }
      {
        Span s(ledger, "archive.resync_write");
        resync->write_traces(w.topo, tc, write_options());
      }
      tc = tracing::TraceCollection{};
      tracing::StreamSource src;
      {
        Span s(ledger, "archive.stream_open");
        src = resync->stream_source(read_options());
      }
      aopts.memory_budget_bytes = s_.memory_budget;
      Span s(ledger, "analysis.replay");
      res = analysis::analyze_streaming(src, aopts);
    }
    std::string text;
    {
      Span s(ledger, "report.render");
      text = report::render_report(res.cube);
    }
    {
      Span s(ledger, "report.save_cube");
      report::save_cube(cube_path().string(), res.cube);
    }
    a.wall_s = phase.end();
    a.cpu_s = cpu_seconds() - cpu0;
    a.peak_rss_mb = peak_rss_mb();
    a.stats = res.stats;
    a.stream_windows = static_cast<double>(windows.value() - windows0);
    a.resync_bytes = static_cast<double>(tree_bytes(work_ / "resync"));

    if (!rss_reset)
      a.error = "cannot reset the peak RSS through /proc/self/clear_refs";
    else if (!res.cube.approx_equal(s_.reference, 0.0))
      a.error = "cube differs from the serial reference";
    else if (res.stats.events != s_.events)
      a.error = "analyzed " + std::to_string(res.stats.events) +
                " events, expected " + std::to_string(s_.events);
    else if (text.empty() || !fs::exists(cube_path()) ||
             fs::file_size(cube_path()) == 0)
      a.error = "empty report or cube file";
  }

  /// Single-layer calls outside the two phases: the standalone
  /// (materialized) prepare, the serial baseline and the clock-condition
  /// check.
  void probe(const archive::ExperimentArchive& raw, Ledger* ledger,
             Repetition& r) const {
    Span root(ledger, "probe");
    auto tc = raw.read_traces(read_options());
    clocksync::synchronize(tc, workers_);
    {
      Span s(ledger, "clocksync.check");
      r.violations = static_cast<double>(
          clocksync::check_clock_condition(tc).violations);
    }
    {
      Span s(ledger, "analysis.prepare");
      (void)analysis::prepare(tc, workers_);
    }
    {
      Span s(ledger, "analysis.serial");
      if (!analysis::analyze_serial(tc).cube.approx_equal(s_.reference, 0.0))
        r.error = "serial cube differs from the reference";
    }
  }

  Setup s_;
  fs::path work_;
  std::size_t workers_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Per traced repetition: total milliseconds per span name.
std::vector<std::map<std::string, double>> span_ms_by_rep(
    const Ledger& ledger, int reps) {
  std::vector<std::map<std::string, double>> out(
      static_cast<std::size_t>(reps));
  for (const SpanRecord& s : ledger.spans())
    out[static_cast<std::size_t>(s.rep)][s.name] +=
        static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  return out;
}

/// Per traced repetition and phase: the share of the phase's wall time
/// covered by its direct child spans.
std::map<std::string, std::vector<double>> phase_coverage(
    const Ledger& ledger) {
  const auto& spans = ledger.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name.rfind("phase.", 0) != 0) continue;
    const double wall =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    out[name].push_back(wall > 0 ? child_ns[i] / wall : 1.0);
  }
  return out;
}

void write_spans(const Ledger& ledger, const std::string& path) {
  Json arr{Json::Array{}};
  for (const SpanRecord& s : ledger.spans())
    arr.push_back(Json{Json::Object{}}
                      .set("name", Json(s.name))
                      .set("parent", Json(s.parent))
                      .set("rep", Json(s.rep))
                      .set("start_ns", Json(s.start_ns))
                      .set("end_ns", Json(s.end_ns)));
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream(path) << arr.dump() << "\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  bool have_seed{false};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir;
  std::string spans_out;
  bool tiny{false};
  bool perturb_reference{false};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "metabench: %s\nusage: metabench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE] "
               "[--tiny] [--perturb-reference]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      o.have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--perturb-reference") {
      o.perturb_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "collective-2048" && o.workload != "stream-512")
    usage("--workload must be collective-2048 or stream-512");
  if (!o.have_seed) usage("--seed is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Analyze phases per archive in end-to-end runs: the tail percentile
/// needs many analyze samples, and the measure phase is the slower one.
constexpr int kAnalysesPerArchive = 4;

std::vector<Metric> end_to_end(const std::vector<Repetition>& reps,
                               const std::vector<double>& setup_s,
                               const Setup& s) {
  std::vector<double> measure, analyze, cpu, rss, disk;
  for (const Repetition& r : reps) {
    if (!r.error.empty()) continue;
    measure.push_back(r.measure_s);
    for (const Analysis& a : r.analyses) {
      if (!a.error.empty()) continue;
      analyze.push_back(a.wall_s);
      cpu.push_back(a.cpu_s);
      rss.push_back(a.peak_rss_mb);
      disk.push_back((r.raw_bytes + a.resync_bytes) /
                     static_cast<double>(s.events));
    }
  }
  const auto [tail_s, tail_pct] = tail(analyze);
  std::printf("%zu measure phases, %zu analyze phases; analysis_tail_s is "
              "their p%.1f\n",
              measure.size(), analyze.size(), tail_pct);
  // Printed, not gated: on shared VMs both swing with whatever else runs
  // on the machine, by more than any bound the benchmark could fix.
  std::printf("  %-36s %16.6f %s (not in the JSON)\n", "analysis_tail_s",
              tail_s, "s");
  std::printf("  %-36s %16.6f %s (median; not in the JSON)\n",
              "analysis_cpu_s", median(cpu), "s");
  return {
      {"setup_s", median(setup_s), "s"},
      {"measure_s", median(measure), "s"},
      {"analysis_s", median(analyze), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"disk_bytes_per_event", median(disk), "B/event"},
  };
}

/// Per-layer medians over the traced repetitions, each of which ran one
/// analyze phase.
std::vector<Metric> per_layer(const std::vector<Repetition>& traced,
                              const std::vector<double>& untraced_wall,
                              const Ledger& ledger, const Setup& s,
                              bool& coverage_ok) {
  const auto by_rep = span_ms_by_rep(ledger, static_cast<int>(traced.size()));
  const auto ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& m : by_rep) {
      const auto it = m.find(name);
      v.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Repetition& r : traced)
      if (r.error.empty() && r.analyses.size() == 1 &&
          r.analyses[0].error.empty())
        v.push_back(field(r, r.analyses[0]));
    return median(v);
  };
  const double ev = static_cast<double>(s.events);
  const auto per_event_ns = [&](double msv) { return msv * 1e6 / ev; };

  std::vector<double> ratio;
  for (const auto& m : by_rep) {
    const auto serial = m.find("analysis.serial");
    const auto replay = m.find("analysis.replay");
    if (serial != m.end() && replay != m.end() && serial->second > 0)
      ratio.push_back(replay->second / serial->second);
  }
  const double traced_wall =
      med([](const Repetition& r, const Analysis& a) {
        return r.measure_s + a.wall_s;
      });

  coverage_ok = true;
  std::vector<Metric> cov_metrics;
  for (const auto& [phase, shares] : phase_coverage(ledger)) {
    const double share = median(shares);
    const std::string key = phase.substr(6);  // "measure" / "analyze"
    const double wall_ms =
        1e3 * (key == "measure"
                   ? med([](const Repetition& r, const Analysis&) {
                       return r.measure_s;
                     })
                   : med([](const Repetition&, const Analysis& a) {
                       return a.wall_s;
                     }));
    std::printf("coverage %-8s %.2f%% of %.3f ms; uncovered %.3f ms\n",
                key.c_str(), 100.0 * share, wall_ms, (1.0 - share) * wall_ms);
    if (share < kMinCoverage) coverage_ok = false;
    cov_metrics.push_back(
        {"bench." + key + "_coverage_pct", 100.0 * share, "%"});
  }

  const double suspensions = med([](const Repetition&, const Analysis& a) {
    return static_cast<double>(a.stats.replay_suspensions);
  });
  std::vector<Metric> out{
      {"simmpi.execute_ms", ms("simmpi.execute"), "ms"},
      {"simmpi.execute_ns_per_event", per_event_ns(ms("simmpi.execute")),
       "ns/event"},
      {"tracing.collect_ms", ms("tracing.collect"), "ms"},
      {"tracing.collect_ns_per_event", per_event_ns(ms("tracing.collect")),
       "ns/event"},
      {"archive.write_ms", ms("archive.write"), "ms"},
      {"archive.write_ns_per_event", per_event_ns(ms("archive.write")),
       "ns/event"},
      {"archive.bytes_per_event",
       med([](const Repetition& r, const Analysis&) { return r.raw_bytes; }) /
           ev,
       "B/event"},
      {"archive.read_ms", ms("archive.read"), "ms"},
      {"archive.read_ns_per_event", per_event_ns(ms("archive.read")),
       "ns/event"},
      {"archive.resync_write_ms", ms("archive.resync_write"), "ms"},
      {"archive.resync_bytes_per_event",
       med([](const Repetition&, const Analysis& a) {
         return a.resync_bytes;
       }) / ev,
       "B/event"},
      {"archive.stream_open_ms", ms("archive.stream_open"), "ms"},
      {"clocksync.synchronize_ms", ms("clocksync.synchronize"), "ms"},
      {"clocksync.violations",
       med([](const Repetition& r, const Analysis&) { return r.violations; }),
       "count"},
      {"analysis.prepare_ms", ms("analysis.prepare"), "ms"},
      {"analysis.replay_ms", ms("analysis.replay"), "ms"},
      {"analysis.replay_ns_per_event", per_event_ns(ms("analysis.replay")),
       "ns/event"},
      {"analysis.serial_ms", ms("analysis.serial"), "ms"},
      {"analysis.parallel_over_serial", median(ratio), "x"},
      {"analysis.replay_suspensions", suspensions, "count"},
      {"analysis.replay_steals",
       med([](const Repetition&, const Analysis& a) {
         return static_cast<double>(a.stats.replay_steals);
       }),
       "count"},
      {"analysis.suspensions_per_kevent", suspensions * 1e3 / ev,
       "count/kevent"},
      {"analysis.replay_bytes",
       med([](const Repetition&, const Analysis& a) {
         return static_cast<double>(a.stats.replay_bytes);
       }),
       "B"},
      {"analysis.stream_windows",
       med([](const Repetition&, const Analysis& a) {
         return a.stream_windows;
       }),
       "count"},
      {"analysis.cpu_s",
       med([](const Repetition&, const Analysis& a) { return a.cpu_s; }),
       "s"},
      {"analysis.trace_resident_peak_bytes",
       med([](const Repetition&, const Analysis& a) {
         return static_cast<double>(a.stats.trace_bytes_in_memory);
       }),
       "B"},
      {"report.render_ms", ms("report.render"), "ms"},
      {"report.save_cube_ms", ms("report.save_cube"), "ms"},
      {"bench.trace_overhead_pct",
       100.0 * (traced_wall / median(untraced_wall) - 1.0), "%"},
  };
  out.insert(out.end(), cov_metrics.begin(), cov_metrics.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const fs::path work = fs::path(o.work_dir);
  // Half the CPUs: with every CPU busy, the parallel phases slow down by
  // up to 2x whenever anything else on the machine runs, so run medians
  // swing by far more than any bound the benchmark could fix.
  const std::size_t workers = std::max<std::size_t>(1, affinity_cpus() / 2);
  try {
    std::printf("metabench: workload=%s seed=%llu seconds=%g trace=%d "
                "workers=%zu scale=%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, workers,
                o.tiny ? "tiny" : "full");

    // Set-up: build inputs, create directories, compute the reference
    // cube. The first one is kept; the later ones only add timings.
    std::vector<double> setup_s;
    const auto timed_set_up = [&] {
      const auto t0 = SteadyClock::now();
      Setup s = set_up(o.workload, o.seed, o.tiny, work, workers);
      setup_s.push_back(
          std::chrono::duration<double>(SteadyClock::now() - t0).count());
      return s;
    };
    std::optional<Setup> setup = timed_set_up();
    if (o.perturb_reference)
      setup->reference.add(MetricId{0}, CallPathId{0}, 0, 1e-9);
    std::printf("info: ranks=%d events=%zu messages=%llu trace_bytes=%zu "
                "memory_budget=%zu\n",
                setup->w.topo.num_ranks(), setup->events,
                static_cast<unsigned long long>(setup->messages),
                setup->trace_bytes,
                setup->w.streaming ? setup->memory_budget : 0);

    Bench bench(std::move(*setup), work, workers);
    setup.reset();

    // A repetition counts once per analyze phase (each is checked against
    // the reference), or once if its measure phase failed.
    std::size_t attempted = 0, failed = 0;
    const auto account = [&](const Repetition& r) {
      const auto fail = [&](const std::string& why) {
        ++failed;
        std::fprintf(stderr, "metabench: repetition %zu failed: %s\n",
                     attempted, why.c_str());
      };
      for (const Analysis& a : r.analyses) {
        ++attempted;
        if (!a.error.empty()) fail(a.error);
      }
      if (!r.error.empty()) {
        if (r.analyses.empty()) ++attempted;
        fail(r.error);
      }
    };

    // Warm-up: fills the page cache, the worker pools and the allocator
    // before anything is timed. Checked like every repetition.
    account(bench.run(nullptr, 1));

    // Traced runs alternate untraced and traced repetitions with one
    // analyze phase each, so the two sides are comparable.
    const int analyses = o.trace ? 1 : kAnalysesPerArchive;
    Ledger ledger;
    std::vector<Repetition> untraced, traced;
    const auto start = SteadyClock::now();
    const std::chrono::duration<double> window(o.seconds);
    while (true) {
      const auto now = SteadyClock::now();
      const double due = static_cast<double>(setup_s.size()) /
                         static_cast<double>(kSetupRepeats);
      if (setup_s.size() < kSetupRepeats && now >= start + window * due) {
        fs::remove_all(work);  // the last repetition's files, untimed
        (void)timed_set_up();
        continue;
      }
      const bool have_enough = setup_s.size() == kSetupRepeats &&
                               !untraced.empty() &&
                               (!o.trace || !traced.empty());
      if (have_enough && now >= start + window) break;
      if (o.trace && untraced.size() > traced.size()) {
        ledger.set_rep(static_cast<int>(traced.size()));
        traced.push_back(bench.run(&ledger, analyses));
        account(traced.back());
      } else {
        untraced.push_back(bench.run(nullptr, analyses));
        account(untraced.back());
      }
    }
    fs::remove_all(work);

    bool correct = failed == 0;
    std::vector<Metric> metrics;
    if (!o.trace) {
      metrics = end_to_end(untraced, setup_s, bench.setup());
    } else {
      std::vector<double> untraced_wall;
      for (const Repetition& r : untraced)
        for (const Analysis& a : r.analyses)
          untraced_wall.push_back(r.measure_s + a.wall_s);
      bool coverage_ok = true;
      metrics = per_layer(traced, untraced_wall, ledger, bench.setup(),
                          coverage_ok);
      if (!coverage_ok) {
        std::fprintf(stderr,
                     "metabench: layer spans cover less than %.0f%% of a "
                     "phase\n",
                     100.0 * kMinCoverage);
        correct = false;
      }
      if (!o.spans_out.empty()) {
        write_spans(ledger, o.spans_out);
        std::printf("spans written to %s\n", o.spans_out.c_str());
      }
    }
    const double error_rate =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("  %-36s %16.6f %s (%zu of %zu repetitions failed)\n",
                "error_rate", error_rate, "ratio", failed, attempted);
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metabench: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(work, ec);
    return 1;
  }
}
