// Differential harness for the out-of-core streaming replay.
//
// The streaming analyzer's contract is bit-identity: for ANY memory
// budget and worker count, analyze_streaming over a v3 archive must
// produce exactly the severity cube the materializing analyzers
// produce from the same events. This harness drives seeded random
// workloads (the generator family behind test_pattern_engine /
// test_property_sweeps) through every analyzer configuration —
//
//   serial, parallel at workers {1, 2, 8}, streaming at workers
//   {1, 2, 8} and three memory budgets including a pathologically tiny
//   one (1 byte) that forces single-event windows —
//
// and asserts every cube cell is bit-identical (==, not near). The
// golden fixture tests/golden/seed_severities.txt (exact %a hexfloats
// frozen from the pre-engine binaries) is additionally re-verified in
// streaming mode, extending the fixture's guarantee to the windowed
// decode path.
//
// The workload constructions (cross_topo/local_topo/random_program/
// make_traces) must stay in sync with the fixture generator in
// test_pattern_engine.cpp; regenerate the fixture if they change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "archive/archive.hpp"
#include "clocksync/correction.hpp"
#include "common/rng.hpp"
#include "simmpi/program.hpp"
#include "simnet/presets.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::analysis {
namespace {

namespace fs = std::filesystem;

// Budgets the streaming analyzer runs at: pathologically tiny (window
// sizing floors at one event per rank), a few windows per rank for the
// workloads below, and effectively unbounded.
constexpr std::size_t kBudgets[] = {1, 16 * 1024, std::size_t{1} << 30};

// --- workload constructions (in sync with the fixture generator) ---------

simnet::Topology cross_topo() {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  simnet::MetahostSpec b = a;
  b.name = "B";
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{1000e-6, 0.0, 1e9});
  topo.place_block(ia, 1, 1);
  topo.place_block(ib, 1, 1);
  return topo;
}

simnet::Topology local_topo(int n) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = n;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, n, 1);
  return topo;
}

simmpi::Program random_program(int nranks, std::uint64_t seed, int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    const int kind = static_cast<int>(rng.uniform_index(5));
    switch (kind) {
      case 0: {
        const Rank a = static_cast<Rank>(rng.uniform_index(nranks));
        Rank c = static_cast<Rank>(rng.uniform_index(nranks - 1));
        if (c >= a) ++c;
        const double bytes = rng.uniform(16.0, 200000.0);
        b.on(a).enter("chat").send(c, s, bytes).exit();
        b.on(c).enter("chat").recv(a, s).exit();
        break;
      }
      case 1: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(256.0);
        break;
      }
      case 3: {
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.005));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 512.0);
        }
        break;
      }
      default: {
        std::vector<int> reqs(static_cast<std::size_t>(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          auto& c = b.on(r);
          c.enter("shift");
          reqs[static_cast<std::size_t>(r)] =
              c.irecv((r + nranks - 1) % nranks, 7777 + s);
          c.send((r + 1) % nranks, 7777 + s, 1024.0);
          c.wait(reqs[static_cast<std::size_t>(r)]);
          c.exit();
        }
        break;
      }
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

tracing::TraceCollection make_traces(const simnet::Topology& topo,
                                     const simmpi::Program& prog,
                                     bool skewed) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = !skewed;
  cfg.measurement.scheme = skewed ? tracing::SyncScheme::HierarchicalTwo
                                  : tracing::SyncScheme::None;
  auto data = workloads::run_experiment(topo, prog, cfg);
  if (skewed) clocksync::synchronize(data.traces);
  return std::move(data.traces);
}

// --- cube row extraction (bit-exact) -------------------------------------

/// (metric name | call path | rank) -> exact severity.
using RowMap = std::map<std::string, double>;

RowMap cube_rows(const report::Cube& cube) {
  RowMap rows;
  for (MetricId m : cube.metrics.preorder()) {
    const std::string& metric = cube.metrics.def(m).name;
    for (CallPathId c : cube.calls.preorder()) {
      const std::string path = cube.calls.path_string(c, cube.regions);
      for (Rank r = 0; r < cube.num_ranks(); ++r) {
        const double v = cube.get(m, c, r);
        if (v == 0.0) continue;
        rows[metric + " | " + path + " | " + std::to_string(r)] = v;
      }
    }
  }
  return rows;
}

void expect_rows_identical(const RowMap& expected, const RowMap& got,
                           const std::string& label) {
  for (const auto& [key, v] : expected) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << label << ": missing row " << key;
      continue;
    }
    EXPECT_EQ(it->second, v) << label << ": " << key;
  }
  for (const auto& [key, v] : got)
    EXPECT_TRUE(expected.count(key)) << label << ": unexpected row " << key
                                     << " = " << v;
}

std::vector<std::string> legacy_patterns() {
  return {"late_sender",    "late_receiver", "early_reduce",
          "late_broadcast", "wait_nxn",      "wait_barrier"};
}

// --- archive plumbing ----------------------------------------------------

/// Writes the collection into a fresh v3 archive under the given temp
/// root and hands back a streamable source.
class ArchivedWorkload {
 public:
  ArchivedWorkload(const std::string& base, const simnet::Topology& topo,
                   const tracing::TraceCollection& tc) {
    fs::remove_all(base);
    fs::create_directories(base);
    base_ = base;
    const auto layout =
        archive::FileSystemLayout::shared(base, topo.num_metahosts());
    arch_ = archive::ExperimentArchive::create(topo, layout, "exp");
    arch_.write_traces(topo, tc);
  }
  ~ArchivedWorkload() {
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  [[nodiscard]] tracing::StreamSource source() const {
    return arch_.stream_source(archive::ReadOptions{});
  }

 private:
  std::string base_;
  archive::ExperimentArchive arch_{};
};

std::string temp_base(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("msc_stream_diff_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           "_" + tag))
      .string();
}

// --- seeded random differential ------------------------------------------

struct RandomCase {
  const char* name;
  int topo_kind;  // 0 = local(n), 1 = cross, 2 = viola
  int nranks;     // local only
  std::uint64_t seed;
  int steps;
  bool skewed;
};

class StreamDifferential : public ::testing::TestWithParam<RandomCase> {};

TEST_P(StreamDifferential, CubeBitIdenticalAcrossAllAnalyzerConfigs) {
  const RandomCase& c = GetParam();
  simnet::Topology topo;
  switch (c.topo_kind) {
    case 0: topo = local_topo(c.nranks); break;
    case 1: topo = cross_topo(); break;
    default: topo = simnet::make_viola_experiment1(); break;
  }
  const auto tc = make_traces(
      topo, random_program(topo.num_ranks(), c.seed, c.steps), c.skewed);

  const auto serial = analyze_serial(tc);
  const RowMap want = cube_rows(serial.cube);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ReplayOptions opts;
    opts.max_workers = workers;
    const auto res = analyze_parallel(tc, opts);
    expect_rows_identical(want, cube_rows(res.cube),
                          std::string(c.name) + " parallel w=" +
                              std::to_string(workers));
  }

  const ArchivedWorkload ar(temp_base(c.name), topo, tc);
  const auto src = ar.source();
  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::size_t budget : kBudgets) {
      ReplayOptions opts;
      opts.max_workers = workers;
      opts.memory_budget_bytes = budget;
      const auto res = analyze_streaming(src, opts);
      const std::string label = std::string(c.name) + " streaming w=" +
                                std::to_string(workers) +
                                " budget=" + std::to_string(budget);
      expect_rows_identical(want, cube_rows(res.cube), label);
      EXPECT_EQ(res.stats.events, serial.stats.events) << label;
      EXPECT_EQ(res.stats.messages, serial.stats.messages) << label;
      EXPECT_EQ(res.stats.collective_instances,
                serial.stats.collective_instances)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StreamDifferential,
    ::testing::Values(RandomCase{"local3-s11", 0, 3, 11, 10, false},
                      RandomCase{"local5-s23", 0, 5, 23, 8, false},
                      RandomCase{"cross-s42", 1, 2, 42, 14, false},
                      RandomCase{"viola-s7-skewed", 2, 0, 7, 6, true}),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

// --- golden fixture re-verified in streaming mode ------------------------

std::map<std::string, RowMap> load_golden() {
  std::map<std::string, RowMap> out;
  std::ifstream in(MSC_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "missing fixture " << MSC_GOLDEN_FILE;
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("workload ", 0) == 0) {
      current = line.substr(9);
      out[current];
      continue;
    }
    const std::size_t last_sep = line.rfind(" | ");
    if (last_sep == std::string::npos) {
      ADD_FAILURE() << "malformed fixture row: " << line;
      continue;
    }
    const std::string key_prefix = line.substr(0, last_sep);
    std::istringstream tail(line.substr(last_sep + 3));
    int rank = -1;
    std::string hex;
    tail >> rank >> hex;
    const double v = std::strtod(hex.c_str(), nullptr);
    out[current][key_prefix + " | " + std::to_string(rank)] = v;
  }
  EXPECT_EQ(out.size(), 10u);
  return out;
}

const std::map<std::string, RowMap>& golden() {
  static const std::map<std::string, RowMap> g = load_golden();
  return g;
}

struct SeedWorkload {
  simnet::Topology topo;
  tracing::TraceCollection traces;
};

SeedWorkload seed_workload(const std::string& name) {
  SeedWorkload w;
  if (name == "late-sender-cross") {
    w.topo = cross_topo();
    w.traces =
        make_traces(w.topo, workloads::late_sender_program(0.25), false);
  } else if (name == "late-sender-local") {
    w.topo = local_topo(2);
    w.traces =
        make_traces(w.topo, workloads::late_sender_program(0.25), false);
  } else if (name == "late-receiver-cross") {
    w.topo = cross_topo();
    w.traces = make_traces(
        w.topo, workloads::late_receiver_program(0.3, 1 << 20), false);
  } else if (name == "wait-nxn-local") {
    w.topo = local_topo(4);
    w.traces = make_traces(
        w.topo, workloads::wait_nxn_program({0.0, 0.1, 0.2, 0.4}), false);
  } else if (name == "wait-nxn-cross") {
    w.topo = cross_topo();
    w.traces =
        make_traces(w.topo, workloads::wait_nxn_program({0.0, 0.5}), false);
  } else if (name == "wait-barrier-local") {
    w.topo = local_topo(4);
    w.traces = make_traces(
        w.topo, workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}),
        false);
  } else if (name == "early-reduce-local") {
    w.topo = local_topo(4);
    w.traces = make_traces(
        w.topo, workloads::early_reduce_program({0.0, 0.2, 0.5, 0.1}),
        false);
  } else if (name == "late-broadcast-local") {
    w.topo = local_topo(4);
    w.traces = make_traces(
        w.topo, workloads::late_broadcast_program(4, 0.35), false);
  } else if (name == "random-viola") {
    w.topo = simnet::make_viola_experiment1();
    w.traces = make_traces(
        w.topo, random_program(w.topo.num_ranks(), 1, 12), true);
  } else if (name == "metatrace-viola") {
    w.topo = simnet::make_viola_experiment1();
    w.traces = make_traces(w.topo, workloads::build_metatrace(), true);
  } else {
    ADD_FAILURE() << "unknown seed workload " << name;
  }
  return w;
}

class GoldenStreaming : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenStreaming, LegacySelectionBitIdenticalUnderStreaming) {
  const std::string name = GetParam();
  const SeedWorkload w = seed_workload(name);
  const ArchivedWorkload ar(temp_base("golden_" + name), w.topo, w.traces);
  const auto src = ar.source();
  // A small budget (a few events per rank per window) and the tiny
  // floor both reproduce the frozen fixture exactly.
  for (const std::size_t budget : {std::size_t{1}, std::size_t{4096}}) {
    ReplayOptions opts;
    opts.patterns = legacy_patterns();
    opts.memory_budget_bytes = budget;
    const auto res = analyze_streaming(src, opts);
    expect_rows_identical(golden().at(name), cube_rows(res.cube),
                          name + " streaming budget=" +
                              std::to_string(budget));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenStreaming,
    ::testing::Values("late-sender-cross", "late-sender-local",
                      "late-receiver-cross", "wait-nxn-local",
                      "wait-nxn-cross", "wait-barrier-local",
                      "early-reduce-local", "late-broadcast-local",
                      "random-viola", "metatrace-viola"));

}  // namespace
}  // namespace metascope::analysis
