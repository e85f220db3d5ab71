// The pluggable pattern engine: wait-state detection as replay
// callbacks instead of a hardwired accumulation layer.
//
// A PatternDetector subscribes to the replay events it cares about
// (region enter/exit, matched point-to-point message, completed
// collective instance, finalize) and emits severities through a
// PatternSink. A PatternRegistry owns the detector instances, declares
// each pattern's metric-tree node (parent, name, description, optional
// grid child), builds the report::MetricTree from whatever detectors
// are enabled, and threads per-pattern enable/disable from
// ReplayOptions::patterns / `msc_run --patterns`.
//
// Determinism contract (what keeps cubes bit-identical between the
// materializing and the streaming analyzer, and across worker counts):
//
//  - The engine, not the detector, owns dispatch order. Callbacks fire
//    in one canonical order regardless of how the records were
//    collected: the region pass walks ranks ascending and each rank's
//    call paths in id order; p2p records by (receiver rank, receive
//    position); collective instances by (communicator, sequence) with
//    members sorted by rank — the CommTables slot order every producer
//    fills.
//  - Within one record, detectors fire in registration order.
//  - A detector must be a pure function of the callback context: no
//    clocks, no randomness, no cross-record state that depends on
//    anything but the canonical stream. (Cross-record state that *is*
//    a function of the stream — counters, running extrema flushed in
//    finalize — is fine.)
//  - Every severity must come out of clamp_wait (or be otherwise
//    provably in [0, op duration]) so the category partition of total
//    time never goes negative.
//
// The region pass dispatches per (rank, call path): region_enter when a
// rank's visit to a call path begins, then region_exit carrying that
// rank's exclusive seconds in the path aggregated over all occurrences.
// This granularity is deliberate — it reproduces the pre-engine base
// accumulation's floating-point chains exactly (one add per cell), which
// the golden-severity fixture locks in.
//
// Adding a detector: subclass PatternDetector, fill a DetectorSpec
// (key, metric node, callback mask), implement the callbacks against
// PatternSink, and registry.add(std::make_unique<MyDetector>()). See
// detectors.cpp for the nine built-ins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/patterns.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/wait_rules.hpp"
#include "report/cube.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

// --- callback contexts ---------------------------------------------------

/// One (rank, call path) visit in the region pass. For region_exit,
/// `seconds` is the rank's exclusive time in the path over all
/// occurrences; for region_enter it is zero.
struct RegionCtx {
  CallPathId cnode;
  Rank rank{kNoRank};
  double seconds{0.0};
  RegionCategory category{RegionCategory::User};
};

/// One matched point-to-point message, both sides resolved.
struct P2pCtx {
  const tracing::TraceDefs* defs{nullptr};
  const P2pSide* send{nullptr};
  const P2pSide* recv{nullptr};
  /// Send-side region is a blocking standard send (MPI_Send) — from the
  /// RegionClassTable, no string compare on this path.
  bool send_is_blocking_standard{false};
  /// Message crossed metahosts (grid specializations fire).
  bool grid{false};
};

/// One completed collective instance. Members are sorted by rank; the
/// engine precomputes the last arrival once so every collective
/// detector shares the same scan.
struct CollCtx {
  const tracing::TraceDefs* defs{nullptr};
  CollectiveKind kind{CollectiveKind::NotACollective};
  const std::vector<Rank>* comm_members{nullptr};
  const std::vector<CollMember>* members{nullptr};
  Rank root{kNoRank};
  /// Communicator spans metahosts (grid specializations fire).
  bool grid{false};
  /// Enter time of the last-arriving member (ties: lowest rank) and its
  /// metahost — the peer of every wait/completion in this instance.
  double last_enter{0.0};
  MetahostId last_enter_mh;
};

// --- sink ----------------------------------------------------------------

/// Where detectors emit. Also tallies per-detector hit counts and
/// seconds, flushed to "analysis.pattern.<key>.{hits,seconds}" telemetry
/// in one batch after dispatch (never per hit on the hot path).
class PatternSink {
 public:
  PatternSink(report::Cube& cube, std::size_t num_detectors);

  /// Base (non-wait) time into a category metric. No category
  /// subtraction: this *is* the category's time.
  void base_time(MetricId metric, CallPathId cnode, Rank rank,
                 double seconds);

  /// One wait severity: `metric` gains `seconds` at (cnode, rank), the
  /// owning `category` loses the same amount (severity stays an exact
  /// partition of total time), and the (waiter, peer) metahost pair
  /// breakdown is recorded. Non-positive seconds are ignored.
  void severity(MetricId metric, MetricId category, CallPathId cnode,
                Rank rank, double seconds, MetahostId waiter_mh,
                MetahostId peer_mh);

  struct Tally {
    std::uint64_t hits{0};
    double seconds{0.0};
  };
  [[nodiscard]] const std::vector<Tally>& tallies() const {
    return tallies_;
  }

  /// Engine-internal: attributes subsequent emissions to detector slot
  /// `i` for the telemetry tallies.
  void set_current(std::size_t i) { current_ = i; }

 private:
  report::Cube* cube_;
  std::size_t current_{0};
  std::vector<Tally> tallies_;
};

// --- detectors -----------------------------------------------------------

/// Callback subscription bits (DetectorSpec::callbacks).
enum : unsigned {
  kOnRegion = 1u << 0,      ///< region_enter / region_exit
  kOnP2p = 1u << 1,         ///< p2p_matched
  kOnCollective = 1u << 2,  ///< collective_completed
  kOnFinalize = 1u << 3,    ///< finalize
};

/// The metric-tree node a detector contributes. Empty `name` means the
/// detector owns no node of its own (structural detectors). Empty
/// `grid_name` means no grid child.
struct MetricNodeSpec {
  std::string name;
  std::string description;
  /// Name of the parent node — for built-ins this is also the category
  /// metric the severity is subtracted from.
  std::string parent;
  std::string grid_name;
  std::string grid_description;
};

struct DetectorSpec {
  /// Stable key for --patterns selection and telemetry
  /// ("late_sender", "barrier_completion", ...).
  std::string key;
  MetricNodeSpec node;
  unsigned callbacks{0};
  /// Structural detectors (the category time partition) are always
  /// enabled and not selectable.
  bool structural{false};
};

class PatternDetector {
 public:
  virtual ~PatternDetector() = default;

  [[nodiscard]] virtual const DetectorSpec& spec() const = 0;

  /// Called once after the metric tree is built; the default resolves
  /// the spec's node, grid child, and parent (category) ids. Override
  /// to resolve additional anchors.
  virtual void bind(const report::MetricTree& tree);

  virtual void region_enter(const RegionCtx& ctx, PatternSink& sink);
  virtual void region_exit(const RegionCtx& ctx, PatternSink& sink);
  virtual void p2p_matched(const P2pCtx& ctx, PatternSink& sink);
  virtual void collective_completed(const CollCtx& ctx, PatternSink& sink);
  virtual void finalize(PatternSink& sink);

 protected:
  /// Resolved by the default bind().
  MetricId metric_;
  MetricId grid_metric_;
  MetricId category_;

  /// Base node or its grid child (when it exists) by locality.
  [[nodiscard]] MetricId metric_of(bool grid) const {
    return grid && grid_metric_.valid() ? grid_metric_ : metric_;
  }
};

// --- registry ------------------------------------------------------------

class PatternRegistry {
 public:
  PatternRegistry() = default;
  PatternRegistry(PatternRegistry&&) = default;
  PatternRegistry& operator=(PatternRegistry&&) = default;

  /// All built-in detectors, in canonical registration order: the
  /// category time partition, then Late Sender, Late Receiver, Early
  /// Reduce, Late Broadcast, Wait at N x N, N x N Completion, Wait at
  /// Barrier, Barrier Completion.
  static PatternRegistry standard();

  void add(std::unique_ptr<PatternDetector> detector);

  /// Restricts to the named detector keys (structural detectors stay).
  /// An empty list enables everything. Throws Error on an unknown key,
  /// listing the valid ones.
  void select(const std::vector<std::string>& keys);

  /// One row per detector, for `msc_run --list-patterns`.
  struct Entry {
    std::string key;
    std::string metric;  ///< empty for structural detectors
    std::string description;
    bool structural{false};
    bool enabled{true};
  };
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Builds the metric tree — the category skeleton (Time / MPI /
  /// Communication / Point-to-point / Collective / Synchronization)
  /// plus every enabled detector's node and grid child — and binds the
  /// enabled detectors to their resolved ids.
  void install(report::MetricTree& tree);

  [[nodiscard]] std::size_t size() const { return detectors_.size(); }
  [[nodiscard]] bool is_enabled(std::size_t i) const { return enabled_[i]; }
  [[nodiscard]] PatternDetector& detector(std::size_t i) {
    return *detectors_[i];
  }

 private:
  std::vector<std::unique_ptr<PatternDetector>> detectors_;
  std::vector<bool> enabled_;
};

// --- engine --------------------------------------------------------------

/// Drives one analysis: builds the cube skeleton from the registry,
/// runs the region pass, then dispatches the collected match records in
/// canonical order. Every analyzer shares this one dispatch path — the
/// join/replay difference ends at record collection.
class PatternEngine {
 public:
  PatternEngine(PatternRegistry& registry, report::Cube& cube);

  /// Installs the metric tree into the cube, copies the call/region/
  /// system trees, binds detectors, and runs the region pass (base
  /// category time). Returns the PatternSet view over the tree.
  PatternSet install(const tracing::TraceCollection& tc,
                     const PreparedTrace& prep);

  /// Streaming variant of install: trees, the region class table and
  /// detector binding only, no region pass. The streaming analyzer's
  /// exclusive times come out of its replay's op walks, so it installs
  /// first and runs region_pass() once the replay has accumulated them.
  PatternSet install_trees(const tracing::TraceCollection& tc,
                           const report::CallTree& calls);

  /// The region pass over per-rank exclusive times, detached from
  /// PreparedTrace: ranks ascending, each rank's call paths in id
  /// order — exactly the add sequence install(tc, prep) runs, so cubes
  /// stay bit-identical whichever entry point built the trees.
  void region_pass(const std::vector<std::vector<ExclusiveTime>>& excl_time);

  /// Dispatches p2p_matched once per message and collective_completed
  /// once per instance, in the canonical order the records must already
  /// be in; runs finalize, fills stats.messages /
  /// stats.collective_instances, and flushes the per-pattern tallies.
  void dispatch(std::vector<P2pRecord>&& p2p,
                std::vector<CollInstance>&& colls, AnalysisStats& stats);

 private:
  PatternRegistry* registry_;
  report::Cube* cube_;
  const tracing::TraceCollection* tc_{nullptr};
  /// RegionId -> {category, collective kind, blocking-send?}, built once
  /// in install_trees so dispatch never classifies by region name.
  RegionClassTable region_table_;
  PatternSink sink_;
  /// Enabled detectors per callback, as (slot, detector) in
  /// registration order.
  struct Sub {
    std::size_t slot;
    PatternDetector* det;
  };
  std::vector<Sub> on_region_, on_p2p_, on_coll_, on_final_;

  void flush_telemetry();
};

}  // namespace metascope::analysis
