#include "report/cubexml.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/analyzer.hpp"
#include "common/error.hpp"
#include "simnet/presets.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::report {
namespace {

Cube small_cube() {
  Cube cube;
  const MetricId time = cube.metrics.add("Time", "total <&\"escaped\">");
  const MetricId wait = cube.metrics.add("Wait", "", time);
  const RegionId main_r = cube.regions.intern("main");
  const RegionId recv_r = cube.regions.intern("MPI_Recv");
  const CallPathId main_c = cube.calls.get_or_add(CallPathId{}, main_r);
  const CallPathId recv_c = cube.calls.get_or_add(main_c, recv_r);
  cube.system.metahosts.push_back(tracing::MetahostDef{MetahostId{0}, "A"});
  cube.system.metahosts.push_back(tracing::MetahostDef{MetahostId{1}, "B"});
  for (Rank r = 0; r < 3; ++r) {
    tracing::LocationDef loc;
    loc.machine = MetahostId{r == 2 ? 1 : 0};
    loc.node = NodeId{r};
    loc.process = r;
    cube.system.locations.push_back(loc);
  }
  cube.system.comms.push_back(
      tracing::CommDef{CommId{0}, "MPI_COMM_WORLD", {0, 1, 2}});
  cube.add(time, main_c, 0, 1.25);
  cube.add(wait, recv_c, 2, 0.5);
  cube.add(time, recv_c, 1, 1e-9);
  return cube;
}

TEST(CubeXml, RoundTripPreservesEverything) {
  const Cube cube = small_cube();
  const std::string xml = to_cube_xml(cube);
  const Cube loaded = from_cube_xml(xml);
  EXPECT_TRUE(cube.approx_equal(loaded, 0.0));
  EXPECT_EQ(loaded.system.metahosts, cube.system.metahosts);
  EXPECT_EQ(loaded.system.locations, cube.system.locations);
  EXPECT_EQ(loaded.system.comms, cube.system.comms);
  EXPECT_EQ(loaded.metrics.def(MetricId{0}).description,
            "total <&\"escaped\">");
  EXPECT_EQ(loaded.regions.name(RegionId{1}), "MPI_Recv");
}

TEST(CubeXml, RoundTripFullAnalysisCube) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto res = analysis::analyze_serial(data.traces);
  const Cube loaded = from_cube_xml(to_cube_xml(res.cube));
  EXPECT_TRUE(res.cube.approx_equal(loaded, 1e-15));
  EXPECT_DOUBLE_EQ(loaded.total_time(), res.cube.total_time());
}

TEST(CubeXml, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "msc_cube_rt.cubex")
          .string();
  const Cube cube = small_cube();
  save_cube(path, cube);
  const Cube loaded = load_cube(path);
  EXPECT_TRUE(cube.approx_equal(loaded, 0.0));
  std::filesystem::remove(path);
}

TEST(CubeXml, RejectsGarbage) {
  EXPECT_THROW(from_cube_xml("not xml at all"), Error);
  EXPECT_THROW(from_cube_xml("<cube version=\"1\">"), Error);
  EXPECT_THROW(from_cube_xml("<notacube version=\"1\"></notacube>"), Error);
}

TEST(CubeXml, RejectsWrongVersion) {
  std::string xml = to_cube_xml(small_cube());
  const auto pos = xml.find("version=\"1\"");
  xml.replace(pos, 11, "version=\"9\"");
  EXPECT_THROW(from_cube_xml(xml), Error);
}

TEST(CubeXml, RejectsMismatchedTags) {
  EXPECT_THROW(from_cube_xml("<cube version=\"1\"><metrics></cube>"),
               Error);
}

TEST(CubeXml, MissingFileThrows) {
  EXPECT_THROW(load_cube("/nonexistent/cube.cubex"), Error);
}

TEST(CubeXml, ZeroEntriesNotStored) {
  Cube cube = small_cube();
  const std::string xml = to_cube_xml(cube);
  // Only three non-zero severity entries.
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = xml.find("<v ", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 3u);
}

TEST(CubeXml, SaveToFullDeviceFailsWithIo) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    save_cube("/dev/full", small_cube());
    FAIL() << "save_cube to /dev/full succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/dev/full");
  }
}

}  // namespace
}  // namespace metascope::report
