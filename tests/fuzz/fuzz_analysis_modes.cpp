// Fuzz target: the two analysis modes held to each other on one damaged
// trace container. The definitions are the fixed experiment of
// analysis_modes_seed.hpp (written once into a scratch archive); the
// input is the bytes of its one trace container. In strict and in
// permissive mode, at 1 and 2 workers, two paths read it:
//
//   - materialized: ExperimentArchive::read_traces -> analyze_parallel;
//   - streamed: ExperimentArchive::stream_source -> analyze_streaming,
//     at a memory budget of three-event windows.
//
// Either both throw a metascope::Error with the same code, rank and
// container-absolute offset, or both succeed with the same quarantined
// ranks and bit-identical cubes (every severity and pair-breakdown cell
// compared by its bits, so NaN cells compare too). Anything else — one
// path failing alone, any other exception, a sanitizer report — traps.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "analysis_modes_seed.hpp"
#include "archive/archive.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "report/cube.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/config.hpp"
#include "workloads/experiment.hpp"

namespace {

using namespace metascope;

void require(bool ok) {
  if (!ok) __builtin_trap();
}

/// The seed experiment's archive in a scratch directory, removed at
/// exit. Each input overwrites its container.
struct Fixture {
  std::filesystem::path dir;
  archive::ExperimentArchive archive;
  std::string container;
  std::size_t ranks{0};

  Fixture() {
    const auto spec = workloads::parse_experiment(
        Json::parse(fuzz::kAnalysisModesConfig));
    const auto data =
        workloads::run_experiment(spec.topology, spec.program, spec.config);
    dir = std::filesystem::temp_directory_path() /
          ("msc_fuzz_analysis_modes_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    archive = archive::ExperimentArchive::create(
        spec.topology,
        archive::FileSystemLayout::shared(dir.string(),
                                          spec.topology.num_metahosts()),
        spec.name);
    archive.write_traces(spec.topology, data.traces, 1);
    container = archive.dir_of(MetahostId{0}) + "/" +
                tracing::container_filename();
    ranks = data.traces.ranks.size();
  }
  ~Fixture() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// What one path made of the input.
struct Outcome {
  std::optional<Error> error;
  std::vector<Rank> quarantined;
  report::Cube cube;
};

template <typename Analyze>
Outcome attempt(Analyze analyze) {
  Outcome o;
  try {
    analyze(o);
  } catch (const Error& e) {
    o = Outcome{};
    o.error = e;
  }
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool identical(const report::Cube& a, const report::Cube& b) {
  if (!(a.metrics == b.metrics) || !(a.calls == b.calls) ||
      a.num_ranks() != b.num_ranks())
    return false;
  const int metahosts = static_cast<int>(a.system.metahosts.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    const MetricId mid{static_cast<int>(m)};
    for (std::size_t c = 0; c < a.calls.size(); ++c)
      for (Rank r = 0; r < a.num_ranks(); ++r) {
        const CallPathId cid{static_cast<int>(c)};
        if (!same_bits(a.get(mid, cid, r), b.get(mid, cid, r))) return false;
      }
    for (int w = 0; w < metahosts; ++w)
      for (int p = 0; p < metahosts; ++p)
        if (!same_bits(a.pair_breakdown(mid, MetahostId{w}, MetahostId{p}),
                       b.pair_breakdown(mid, MetahostId{w}, MetahostId{p})))
          return false;
  }
  return true;
}

void require_same(const Outcome& a, const Outcome& b) {
  require(a.error.has_value() == b.error.has_value());
  if (a.error) {
    require(a.error->code() == b.error->code());
    require(a.error->context().rank == b.error->context().rank);
    require(a.error->context().byte_offset == b.error->context().byte_offset);
    return;
  }
  require(a.quarantined == b.quarantined);
  require(identical(a.cube, b.cube));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const Fixture& fx = fixture();
  write_file_bytes(fx.container, std::vector<std::uint8_t>(data, data + size));

  for (const bool permissive : {false, true}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      archive::ReadOptions read;
      read.permissive = permissive;
      read.max_workers = workers;
      analysis::ReplayOptions analyze;
      analyze.max_workers = workers;

      const Outcome materialized = attempt([&](Outcome& o) {
        archive::ReadReport report;
        const auto tc = fx.archive.read_traces(read, &report);
        o.quarantined = report.quarantined_ranks();
        o.cube = analysis::analyze_parallel(tc, analyze).cube;
      });
      const Outcome streamed = attempt([&](Outcome& o) {
        const auto src = fx.archive.stream_source(read);
        o.quarantined = src.quarantined;
        analysis::ReplayOptions windows = analyze;
        windows.memory_budget_bytes =
            3 * fx.ranks *
            (sizeof(tracing::Event) + sizeof(analysis::OpRecord));
        o.cube = analysis::analyze_streaming(src, windows).cube;
      });
      require_same(materialized, streamed);
    }
  }
  return 0;
}

#include "fuzz_driver.hpp"
