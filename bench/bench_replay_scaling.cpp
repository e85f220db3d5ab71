// Replay-scheduler scaling: thread-per-rank vs a bounded worker pool.
//
// The old parallel analyzer spawned one OS thread per application rank;
// this bench reproduces that regime by pinning the pool size to the rank
// count, and compares it against the default pool (hardware
// concurrency) at 64 / 256 / 1024 ranks. The point of record: the
// bounded pool analyzes a 1024-rank trace without 1024 threads, with
// wall-clock that does not degrade under thread-spawn and
// context-switch pressure, and its cube stays bit-identical to the
// serial analyzer's.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/wait_rules.hpp"
#include "archive/archive.hpp"
#include "clocksync/correction.hpp"
#include "common/table.hpp"
#include "harness_util.hpp"
#include "simmpi/program.hpp"
#include "simnet/topology.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "tracing/matching.hpp"
#include "workloads/experiment.hpp"

using namespace metascope;

namespace {

/// Two metahosts joined by a WAN link, `per_side` single-CPU nodes each.
simnet::Topology two_site(int per_side) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "SiteA";
  a.num_nodes = per_side;
  a.cpus_per_node = 1;
  a.speed_factor = 0.8;
  a.internal = simnet::LinkSpec{50e-6, 1e-6, 0.5e9};
  simnet::MetahostSpec b;
  b.name = "SiteB";
  b.num_nodes = per_side;
  b.cpus_per_node = 1;
  b.speed_factor = 1.0;
  b.internal = simnet::LinkSpec{21.5e-6, 0.8e-6, 1.4e9};
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{988e-6, 3.86e-6, 1.25e9});
  topo.place_block(ia, per_side, 1);
  topo.place_block(ib, per_side, 1);
  return topo;
}

/// Ring shifts + staggered collectives — enough point-to-point traffic
/// that the replay suspends often when ranks outnumber workers.
simmpi::Program ring_program(int nranks, int steps) {
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

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int main() {
  bench::banner("Replay scaling", "thread-per-rank vs bounded worker pool");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware concurrency: %u\n\n", hw);

  bench::BenchReport report("replay_scaling");
  report.set("hardware_concurrency", Json(static_cast<int>(hw)));

  TextTable t({"ranks", "events", "mode", "workers", "wall [ms]",
               "suspensions", "requeues", "steals", "cube==serial"});
  workloads::ExperimentData data1024;  // kept for the overhead section
  for (int per_side : {32, 128, 512}) {
    const int ranks = 2 * per_side;
    const auto topo = two_site(per_side);
    workloads::ExperimentConfig cfg;
    cfg.perfect_clocks = true;
    cfg.measurement.scheme = tracing::SyncScheme::None;
    auto data =
        workloads::run_experiment(topo, ring_program(ranks, 3), cfg);
    const auto& tc = data.traces;
    const auto serial = analysis::analyze_serial(tc);

    struct Mode {
      const char* name;
      std::size_t workers;
    };
    const Mode modes[] = {
        {"thread/rank", static_cast<std::size_t>(ranks)},
        {"pooled", static_cast<std::size_t>(hw)},
    };
    for (const Mode& m : modes) {
      analysis::ReplayOptions opts;
      opts.max_workers = m.workers;
      const auto t0 = std::chrono::steady_clock::now();
      const auto p = analysis::analyze_parallel(tc, opts);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_ms = ms_between(t0, t1);
      t.add_row({std::to_string(ranks), std::to_string(p.stats.events),
                 m.name, std::to_string(p.stats.replay_workers),
                 TextTable::fixed(wall_ms, 1),
                 std::to_string(p.stats.replay_suspensions),
                 std::to_string(p.stats.replay_requeues),
                 std::to_string(p.stats.replay_steals),
                 serial.cube.approx_equal(p.cube, 0.0) ? "yes" : "NO"});
      report.add_row("scaling",
                     Json{Json::Object{}}
                         .set("ranks", Json(ranks))
                         .set("mode", Json(m.name))
                         .set("workers", Json(p.stats.replay_workers))
                         .set("wall_ms", Json(wall_ms))
                         .set("suspensions", Json(p.stats.replay_suspensions))
                         .set("cube_matches_serial",
                              Json(serial.cube.approx_equal(p.cube, 0.0))));
    }
    if (ranks == 1024) data1024 = std::move(data);
  }
  std::printf("%s", t.render().c_str());

  // --- Pattern-engine dispatch overhead at 1024 ranks ------------------
  // The engine routes every matched message and collective instance
  // through virtual detector callbacks where the pre-refactor layer
  // called the wait formulas directly. This times evaluation only —
  // records are collected once outside the loop, each rep gets a fresh
  // installed cube, and the timed region is the canonical-order sweep —
  // and gates the engine (legacy detector selection, the apples-to-apples
  // configuration) at <= 5% over the direct calls. The detector-count
  // rows show how dispatch cost scales with enabled patterns.
  bench::banner("Pattern-engine dispatch",
                "1024 ranks, evaluation only, best of 9");
  {
    const auto& tc = data1024.traces;
    const auto prep = analysis::prepare(tc, hw);
    const auto pairs = tracing::match_messages(tc);
    std::vector<analysis::P2pRecord> p2p;
    p2p.reserve(pairs.size());
    for (const auto& p : pairs)
      p2p.push_back(analysis::P2pRecord{
          analysis::make_side(prep, p.send.rank, p.send.index),
          analysis::make_side(prep, p.recv.rank, p.recv.index),
          p.recv.index});
    const auto colls = analysis::group_collectives(tc, prep);
    constexpr int kReps = 9;

    // Direct calls: the pre-engine hardwired loop, same canonical order.
    auto direct_ms = [&]() {
      double best = 1e300;
      for (int i = 0; i < kReps; ++i) {
        report::Cube cube;
        auto registry = analysis::PatternRegistry::standard();
        analysis::PatternEngine engine(registry, cube);
        const auto ps = engine.install(tc, prep);
        auto p2pc = p2p;
        auto collc = colls;
        std::vector<analysis::WaitHit> hits;
        const auto t0 = std::chrono::steady_clock::now();
        std::sort(p2pc.begin(), p2pc.end(),
                  [](const analysis::P2pRecord& a,
                     const analysis::P2pRecord& b) {
                    if (a.recv.rank != b.recv.rank)
                      return a.recv.rank < b.recv.rank;
                    return a.recv_index < b.recv_index;
                  });
        std::sort(collc.begin(), collc.end(),
                  [](const analysis::CollInstance& a,
                     const analysis::CollInstance& b) {
                    if (a.comm != b.comm) return a.comm < b.comm;
                    return a.seq < b.seq;
                  });
        for (const auto& r : p2pc) {
          hits.clear();
          analysis::p2p_hits(ps, tc.defs, prep.region_table, r.send, r.recv,
                             hits);
          for (const auto& h : hits) analysis::apply_hit(cube, h);
        }
        for (auto& inst : collc) {
          std::sort(inst.members.begin(), inst.members.end(),
                    [](const analysis::CollMember& a,
                       const analysis::CollMember& b) {
                      return a.rank < b.rank;
                    });
          hits.clear();
          analysis::collective_hits(
              ps, tc.defs, prep.region_table.kind(inst.region),
              tc.defs.comms[static_cast<std::size_t>(inst.comm)].members,
              inst.members, inst.root, hits);
          for (const auto& h : hits) analysis::apply_hit(cube, h);
        }
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, ms_between(t0, t1));
      }
      return best;
    };

    auto engine_ms = [&](const std::vector<std::string>& sel) {
      double best = 1e300;
      for (int i = 0; i < kReps; ++i) {
        report::Cube cube;
        auto registry = analysis::PatternRegistry::standard();
        registry.select(sel);
        analysis::PatternEngine engine(registry, cube);
        (void)engine.install(tc, prep);
        auto p2pc = p2p;
        auto collc = colls;
        analysis::AnalysisStats stats;
        const auto t0 = std::chrono::steady_clock::now();
        engine.dispatch(std::move(p2pc), std::move(collc), stats);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, ms_between(t0, t1));
      }
      return best;
    };

    const std::vector<std::string> legacy = {
        "late_sender",    "late_receiver", "early_reduce",
        "late_broadcast", "wait_nxn",      "wait_barrier"};
    const std::vector<std::string> p2p_only = {"late_sender",
                                               "late_receiver"};
    const double direct = direct_ms();
    const double eng_legacy = engine_ms(legacy);
    const double eng_all = engine_ms({});
    const double eng_p2p = engine_ms(p2p_only);

    TextTable dt({"configuration", "detectors", "wall [ms]", "vs direct"});
    auto pct = [&](double v) {
      return TextTable::fixed((v - direct) / direct * 100.0, 1) + " %";
    };
    dt.add_row({"direct calls (pre-engine)", "6", TextTable::fixed(direct, 2),
                "--"});
    dt.add_row({"engine, legacy selection", "6",
                TextTable::fixed(eng_legacy, 2), pct(eng_legacy)});
    dt.add_row({"engine, all patterns", "8", TextTable::fixed(eng_all, 2),
                pct(eng_all)});
    dt.add_row({"engine, p2p only", "2", TextTable::fixed(eng_p2p, 2),
                pct(eng_p2p)});
    std::printf("%s", dt.render().c_str());
    const double dispatch_overhead_pct =
        (eng_legacy - direct) / direct * 100.0;
    std::printf("dispatch overhead (legacy selection): %+.2f %%  "
                "(budget: <= 5%%) %s\n",
                dispatch_overhead_pct,
                dispatch_overhead_pct <= 5.0 ? "[ok]" : "[OVER BUDGET]");
    report.set("dispatch_direct_ms", Json(direct));
    report.set("dispatch_engine_legacy_ms", Json(eng_legacy));
    report.set("dispatch_engine_all_ms", Json(eng_all));
    report.set("dispatch_engine_p2p_only_ms", Json(eng_p2p));
    report.set("dispatch_overhead_pct", Json(dispatch_overhead_pct));
    report.set("dispatch_overhead_budget_pct", Json(5.0));
  }

  // --- Telemetry overhead at 1024 ranks --------------------------------
  // The registry's whole design brief is that instrumentation must not
  // slow the pipeline down; this measures it directly. The timed body
  // covers every instrumented stage — archive write + read, clock
  // synchronization, prepare, and the pooled replay — so the <= 5%
  // budget gates the archive/sync/prepare spans and the per-stage
  // parallelism metrics, not just the replay counters. Same trace, same
  // pooled configuration, best-of-51 with recording on vs off; the trace
  // copy each rep consumes is made outside the timed region.
  bench::banner("Telemetry overhead",
                "1024 ranks, full pipeline (archive+sync+prepare+replay)");
  analysis::ReplayOptions opts;
  opts.max_workers = hw;
  const auto topo1024 = two_site(512);
  // The pass writes and re-reads 1024 trace files; on a spinning or
  // shared disk the writeback stalls swamp the few-ms effect being
  // measured, so prefer a RAM-backed directory when the host has one.
  const std::filesystem::path ovbase =
      std::filesystem::is_directory("/dev/shm")
          ? std::filesystem::path("/dev/shm")
          : std::filesystem::temp_directory_path();
  const std::string ovdir = (ovbase / "msc_replay_overhead").string();
  std::filesystem::remove_all(ovdir);
  const auto ovlayout = archive::FileSystemLayout::per_metahost(
      ovdir, topo1024.num_metahosts());
  const auto ovarchive =
      archive::ExperimentArchive::create(topo1024, ovlayout, "overhead");
  auto one_pass = [&]() {
    auto tc = data1024.traces;  // untimed copy; synchronize mutates
    const auto t0 = std::chrono::steady_clock::now();
    ovarchive.write_traces(topo1024, tc, hw);
    auto tc2 = ovarchive.read_traces(hw);
    clocksync::synchronize(tc, hw);
    (void)analysis::prepare(tc, hw);
    (void)analysis::analyze_parallel(tc, opts);
    const auto t1 = std::chrono::steady_clock::now();
    (void)tc2;
    return ms_between(t0, t1);
  };
  // Three configurations: registry off, registry on (the default
  // build), and registry + flight recorder (the `msc_run --trace-out`
  // configuration, rings at default capacity). The effect being
  // measured is ~1 ms on a ~20 ms pass, while a shared host adds
  // stalls worth tens of ms (writeback, noisy neighbours) and drifts
  // its clock rate in multi-second phases — so the estimator is a
  // *paired* design: one untimed warm-up primes the page cache, every
  // round runs all three configurations back to back (same host phase,
  // order rotating so no configuration always sits in the slot the
  // host happens to throttle), each gate is computed per round from
  // adjacent passes, and the median over rounds discards the stalled
  // ones. The displayed columns are each configuration's floor
  // (best-of-N); the gates use the paired medians.
  telemetry::Recorder::instance().configure(
      telemetry::Recorder::kDefaultRingCapacity);
  (void)one_pass();  // warm-up: prime the page cache, untimed
  constexpr int kRounds = 151;
  double off_ms = 1e300, on_ms = 1e300, rec_ms = 1e300;
  std::vector<double> reg_ratio, rec_ratio;  // per-round paired gates
  for (int rep = 0; rep < kRounds; ++rep) {
    double round_ms[3];  // [0]=off  [1]=registry  [2]=registry+recorder
    for (int slot = 0; slot < 3; ++slot) {
      const int cfg = (rep + slot) % 3;
      telemetry::set_enabled(cfg != 0);
      telemetry::Recorder::instance().set_enabled(cfg == 2);
      round_ms[cfg] = one_pass();
      telemetry::Recorder::instance().set_enabled(false);
      telemetry::set_enabled(true);
    }
    off_ms = std::min(off_ms, round_ms[0]);
    on_ms = std::min(on_ms, round_ms[1]);
    rec_ms = std::min(rec_ms, round_ms[2]);
    reg_ratio.push_back(round_ms[1] / round_ms[0]);
    rec_ratio.push_back(round_ms[2] / round_ms[1]);
  }
  // Context for the overhead number: how many events one full pass
  // actually records (huge rings so nothing wraps).
  telemetry::Recorder::instance().configure(std::size_t{1} << 20);
  telemetry::Recorder::instance().set_enabled(true);
  (void)one_pass();
  telemetry::Recorder::instance().set_enabled(false);
  std::uint64_t events_per_pass = 0;
  for (const auto& log : telemetry::Recorder::instance().snapshot()) {
    events_per_pass += log.dropped + log.events.size();
  }
  telemetry::Recorder::instance().configure(
      telemetry::Recorder::kDefaultRingCapacity);
  std::filesystem::remove_all(ovdir);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  const double overhead_pct = (median(reg_ratio) - 1.0) * 100.0;
  const double recorder_overhead_pct = (median(rec_ratio) - 1.0) * 100.0;
  std::printf("telemetry off         : %8.1f ms (best of 151)\n", off_ms);
  std::printf("telemetry on          : %8.1f ms (best of 151)\n", on_ms);
  std::printf("telemetry + recorder  : %8.1f ms (best of 151)\n", rec_ms);
  std::printf("recorder events/pass  : %8llu\n",
              static_cast<unsigned long long>(events_per_pass));
  std::printf(
      "registry overhead     : %+7.2f %%  (paired median of 151 rounds, budget: <= 5%%) "
      "%s\n",
      overhead_pct, overhead_pct <= 5.0 ? "[ok]" : "[OVER BUDGET]");
  std::printf(
      "recorder overhead     : %+7.2f %%  (paired median of 151 rounds, budget: <= 5%%) "
      "%s\n",
      recorder_overhead_pct,
      recorder_overhead_pct <= 5.0 ? "[ok]" : "[OVER BUDGET]");
  report.set("telemetry_on_ms", Json(on_ms));
  report.set("telemetry_off_ms", Json(off_ms));
  report.set("telemetry_overhead_pct", Json(overhead_pct));
  report.set("recorder_on_ms", Json(rec_ms));
  report.set("recorder_overhead_pct", Json(recorder_overhead_pct));
  report.set("recorder_overhead_budget_pct", Json(5.0));
  report.set("recorder_events_per_pass",
             Json(static_cast<double>(events_per_pass)));
  bench::note(
      "\nShape check: the pooled mode matches or beats thread-per-rank\n"
      "wall-clock while holding the worker count at hardware concurrency;\n"
      "at 1024 ranks thread-per-rank pays for a thousand thread spawns and\n"
      "the ensuing context-switch storm. cube==serial must read 'yes' in\n"
      "every row: canonical-order accumulation makes the pooled replay\n"
      "bit-identical to the serial analyzer regardless of schedule.");
  report.write();
  return 0;
}
