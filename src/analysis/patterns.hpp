// The pattern (metric) hierarchy searched for by the analyzers.
//
// Base wait-state patterns follow KOJAK (paper §3, [18]); every one has a
// "grid" specialization that fires when the communication crosses
// metahost boundaries (paper §4 "Metacomputing patterns", Figure 4). The
// grid versions are children of their base pattern, mirroring the
// non-grid hierarchy exactly as the paper's browser arranges them. The
// two Completion patterns are Scalasca-style additions (not in the
// paper's fixed set): they cover the drain phase of a collective — the
// time an early-arriving member spends inside the operation after the
// last participant has finally arrived.
//
//   Time
//   └─ MPI
//      ├─ Communication
//      │  ├─ Point-to-point            (p2p op time that is not waiting)
//      │  │  ├─ Late Sender            ├─ Grid Late Sender
//      │  │  └─ Late Receiver          └─ Grid Late Receiver
//      │  └─ Collective                (collective comm time not waiting)
//      │     ├─ Early Reduce           ├─ Grid Early Reduce
//      │     ├─ Late Broadcast         ├─ Grid Late Broadcast
//      │     ├─ Wait at N x N          ├─ Grid Wait at N x N
//      │     └─ N x N Completion       └─ Grid N x N Completion
//      └─ Synchronization              (barrier time that is not waiting)
//         ├─ Wait at Barrier           ├─ Grid Wait at Barrier
//         └─ Barrier Completion        └─ Grid Barrier Completion
//
// Severities are exclusive: a wait counted in a grid child is not also in
// the base pattern; the base pattern's inclusive total covers both.
//
// Since the pattern-engine refactor this hierarchy is not hardwired:
// each pattern is a PatternDetector registered with a PatternRegistry
// (pattern_engine.hpp), which builds the metric tree from whatever set
// of detectors is enabled. PatternSet below is a convenience view over
// the well-known built-in metrics.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "report/cube.hpp"

namespace metascope::analysis {

/// Resolved metric ids of the built-in patterns — a view over a metric
/// tree built by PatternRegistry::install. Fields of patterns that were
/// not enabled (or of detectors missing from the registry) stay invalid;
/// callers that toggle patterns must check valid() before use.
struct PatternSet {
  MetricId time;
  MetricId mpi;
  MetricId communication;
  MetricId p2p;
  MetricId late_sender;
  MetricId grid_late_sender;
  MetricId late_receiver;
  MetricId grid_late_receiver;
  MetricId collective;
  MetricId early_reduce;
  MetricId grid_early_reduce;
  MetricId late_broadcast;
  MetricId grid_late_broadcast;
  MetricId wait_nxn;
  MetricId grid_wait_nxn;
  MetricId nxn_completion;
  MetricId grid_nxn_completion;
  MetricId synchronization;
  MetricId wait_barrier;
  MetricId grid_wait_barrier;
  MetricId barrier_completion;
  MetricId grid_barrier_completion;

  /// Fills every field whose well-known metric name exists in `tree`.
  static PatternSet from_tree(const report::MetricTree& tree);
};

/// Where a region's exclusive time belongs in the metric tree.
enum class RegionCategory {
  User,             ///< -> Time (root) exclusive
  PointToPoint,     ///< MPI p2p calls
  Collective,       ///< MPI collective communication
  Synchronization,  ///< MPI_Barrier
};

/// Name-based classification — definition-time only. The analyzers never
/// call these per event: the pattern engine bakes the answers into a
/// RegionClassTable and the hot paths look classifications up by id.
RegionCategory classify_region(const std::string& name);

/// Collective pattern family by MPI region name.
enum class CollectiveKind {
  NxN,        ///< Allreduce / Allgather / Alltoall
  Barrier,    ///< Barrier
  OneToN,     ///< Bcast / Scatter (Late Broadcast family)
  NToOne,     ///< Reduce / Gather (Early Reduce family)
  NotACollective,
};

CollectiveKind collective_kind(const std::string& name);

/// RegionId -> {category, collective kind, blocking-send?} computed once
/// per analysis from the region name table, so per-event/per-message
/// classification on the replay hot path is an indexed load instead of a
/// string compare.
class RegionClassTable {
 public:
  RegionClassTable() = default;
  explicit RegionClassTable(const NameTable<RegionId>& regions);

  [[nodiscard]] RegionCategory category(RegionId id) const {
    return info_[index(id)].category;
  }
  [[nodiscard]] CollectiveKind kind(RegionId id) const {
    return info_[index(id)].kind;
  }
  /// True for the blocking standard send (MPI_Send) — the only region
  /// whose rendezvous handshake can produce a Late Receiver wait.
  [[nodiscard]] bool is_blocking_standard_send(RegionId id) const {
    return info_[index(id)].blocking_send;
  }
  [[nodiscard]] std::size_t size() const { return info_.size(); }

 private:
  struct Info {
    RegionCategory category{RegionCategory::User};
    CollectiveKind kind{CollectiveKind::NotACollective};
    bool blocking_send{false};
  };
  [[nodiscard]] std::size_t index(RegionId id) const {
    MSC_CHECK(id.valid() &&
                  static_cast<std::size_t>(id.get()) < info_.size(),
              "region id outside class table");
    return static_cast<std::size_t>(id.get());
  }
  std::vector<Info> info_;
};

}  // namespace metascope::analysis
