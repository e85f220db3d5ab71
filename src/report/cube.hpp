// The severity cube: the three coupled hierarchies shown in the paper's
// Figures 6/7 — a metric (pattern) tree, a call tree, and the system tree
// (metahost / node / process) — plus the severity matrix mapping
// (metric, call path, location) to accumulated time.
//
// Severity values are EXCLUSIVE along the metric dimension: a metric node
// holds only the time not attributed to any of its children. The
// "total execution time penalty in percent" the paper's browser shows
// next to a pattern is inclusive_total(pattern) / inclusive_total(root).
#pragma once

#include <string>
#include <vector>

#include "common/name_table.hpp"
#include "common/types.hpp"
#include "tracing/defs.hpp"

namespace metascope::report {

// --- metric tree ---------------------------------------------------------

struct MetricDef {
  MetricId id;
  std::string name;
  std::string description;
  MetricId parent;  ///< invalid for roots
};

class MetricTree {
 public:
  MetricId add(const std::string& name, const std::string& description,
               MetricId parent = MetricId{});

  [[nodiscard]] const MetricDef& def(MetricId id) const;
  [[nodiscard]] MetricId find(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return defs_.size(); }
  [[nodiscard]] const std::vector<MetricId>& children(MetricId id) const;
  [[nodiscard]] std::vector<MetricId> roots() const;
  /// Pre-order traversal of the whole forest.
  [[nodiscard]] std::vector<MetricId> preorder() const;

  bool operator==(const MetricTree& other) const;

 private:
  std::vector<MetricDef> defs_;
  std::vector<std::vector<MetricId>> children_;
};

// --- call tree -----------------------------------------------------------

struct CallPathNode {
  CallPathId id;
  RegionId region;
  CallPathId parent;  ///< invalid for roots
};

class CallTree {
 public:
  /// Returns the node for `region` under `parent`, creating it if new.
  CallPathId get_or_add(CallPathId parent, RegionId region);

  [[nodiscard]] const CallPathNode& node(CallPathId id) const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<CallPathId>& children(CallPathId id) const;
  [[nodiscard]] std::vector<CallPathId> roots() const;
  [[nodiscard]] std::vector<CallPathId> preorder() const;
  /// "main/solve/MPI_Recv"-style path string.
  [[nodiscard]] std::string path_string(
      CallPathId id, const NameTable<RegionId>& regions) const;

  bool operator==(const CallTree& other) const;

 private:
  std::vector<CallPathNode> nodes_;
  std::vector<std::vector<CallPathId>> children_;
  // (parent, region) -> node lookup.
  std::unordered_map<std::uint64_t, CallPathId> index_;
};

// --- the cube ------------------------------------------------------------

class Cube {
 public:
  Cube() = default;

  MetricTree metrics;
  CallTree calls;
  NameTable<RegionId> regions;
  /// System hierarchy straight from the trace definitions.
  tracing::TraceDefs system;

  [[nodiscard]] int num_ranks() const { return system.num_ranks(); }

  /// Accumulates `seconds` of exclusive severity.
  void add(MetricId m, CallPathId c, Rank r, double seconds);

  [[nodiscard]] double get(MetricId m, CallPathId c, Rank r) const;

  /// Sum over all call paths and ranks (exclusive in metric dimension).
  [[nodiscard]] double metric_total(MetricId m) const;
  /// metric_total over the metric's whole subtree.
  [[nodiscard]] double metric_inclusive_total(MetricId m) const;
  /// Sum over ranks for one (metric, cnode), inclusive over the metric
  /// subtree but exclusive along the call tree.
  [[nodiscard]] double cnode_inclusive(MetricId m, CallPathId c) const;
  /// Like cnode_inclusive but additionally summed over the call subtree.
  [[nodiscard]] double cnode_subtree_inclusive(MetricId m,
                                               CallPathId c) const;
  /// Per-rank value for one (metric, cnode) pair, metric-inclusive.
  [[nodiscard]] double location_inclusive(MetricId m, CallPathId c,
                                          Rank r) const;
  /// Sum over the metric subtree and all cnodes for one rank.
  [[nodiscard]] double rank_inclusive_total(MetricId m, Rank r) const;

  /// Total time (inclusive total of the first metric root).
  [[nodiscard]] double total_time() const;

  /// Grid-pattern extension (paper §6 future work): severity broken down
  /// by the (waiter metahost, peer metahost) pair.
  void add_pair_breakdown(MetricId m, MetahostId waiter, MetahostId peer,
                          double seconds);
  [[nodiscard]] double pair_breakdown(MetricId m, MetahostId waiter,
                                      MetahostId peer) const;

  /// True if both cubes have identical trees and severities equal within
  /// `tol` seconds per entry (used to verify serial vs parallel analyzer).
  [[nodiscard]] bool approx_equal(const Cube& other, double tol) const;

 private:
  void ensure(MetricId m);

  // sev_[metric][cnode * nranks + rank]; rows grow lazily.
  std::vector<std::vector<double>> sev_;
  std::unordered_map<std::uint64_t, double> pair_sev_;
};

}  // namespace metascope::report
