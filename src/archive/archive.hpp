// Runtime trace-archive management (paper §4 "Runtime archive
// management").
//
// All files of one experiment live in an archive directory. On a
// metacomputer there may be no file system shared by all metahosts, so
// the archive becomes a set of *partial archives*, one per file system,
// created by the paper's hierarchical protocol:
//
//   1. rank 0 attempts to create the archive directory and broadcasts
//      the outcome; everyone aborts if that failed;
//   2. each metahost's local master checks whether it can see an archive
//      directory and creates a partial one on its own file system if not;
//   3. every process verifies it can see an archive; the results are
//      combined with an all-reduce; any failure aborts the measurement.
//
// The per-metahost file systems are modelled by FileSystemLayout: each
// metahost is assigned a root directory ("its file system"); metahosts
// sharing a root share a file system. Directory operations are real
// (std::filesystem), so the protocol is exercised end to end.
//
// Each partial archive holds a few files whatever its rank count: the
// shared definitions, one trace container with the blobs of every rank
// that writes there (tracing/epilog_io.hpp, DESIGN.md §5e), and one
// manifest per metahost. Creating a file costs far more than writing a
// rank's few kilobytes, so a file per rank would make the write scale
// with the rank count (the layout SIONlib later replaced in Scalasca).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "simnet/topology.hpp"
#include "tracing/stream.hpp"
#include "tracing/trace.hpp"

namespace metascope::archive {

/// How read_traces reacts to undecodable data (see ReadReport).
struct ReadOptions {
  /// Strict (default): the first undecodable container or blob aborts
  /// the read with a typed Error naming the container, the rank, and a
  /// container-absolute byte offset. Permissive: ranks whose blobs are
  /// missing/corrupt are *quarantined* — their traces come back empty,
  /// events in surviving ranks that can no longer match (p2p with a
  /// quarantined peer, collectives on a communicator containing one)
  /// are pruned, and the analyzer proceeds on the survivors. A damaged
  /// blob quarantines its own rank only; an unreadable container,
  /// index or trailer quarantines every rank the container holds.
  /// Quarantines are recorded in the ReadReport and in telemetry
  /// ("archive.read.quarantined" / "archive.read.pruned_events").
  bool permissive{false};
  /// Per-rank reads fan out on up to this many threads (0 = hardware
  /// concurrency). The result is identical for any count.
  std::size_t max_workers{0};
};

/// Knobs for write_traces (the plain max_workers overload delegates
/// here with defaults).
struct WriteOptions {
  /// Like ReadOptions::max_workers.
  std::size_t max_workers{0};
};

/// One quarantined rank and why.
struct QuarantineRecord {
  Rank rank{kNoRank};
  std::string path;
  ErrorCode code{ErrorCode::None};
  std::string reason;
};

/// What a permissive read had to do to proceed.
struct ReadReport {
  /// Sorted by rank; empty on a clean read.
  std::vector<QuarantineRecord> quarantined;
  /// Events dropped/degraded in surviving ranks by quarantine pruning.
  std::size_t events_pruned{0};

  [[nodiscard]] std::vector<Rank> quarantined_ranks() const;
};

/// Which file-system root each metahost mounts.
class FileSystemLayout {
 public:
  /// One shared root visible from every metahost (classic cluster).
  static FileSystemLayout shared(const std::string& root, int num_metahosts);

  /// A distinct root per metahost (no shared file system — the
  /// metacomputing case).
  static FileSystemLayout per_metahost(const std::string& base,
                                       int num_metahosts);

  /// Custom mapping (e.g. two metahosts share one NFS root, a third does
  /// not).
  static FileSystemLayout custom(std::vector<std::string> roots);

  [[nodiscard]] const std::string& root_of(MetahostId m) const;
  [[nodiscard]] int num_metahosts() const {
    return static_cast<int>(roots_.size());
  }
  /// True if the two metahosts mount the same file system.
  [[nodiscard]] bool same_fs(MetahostId a, MetahostId b) const;

 private:
  std::vector<std::string> roots_;
};

/// Counters exposing the protocol's behaviour (ablation A2 compares them
/// against naive per-process creation).
struct CreationStats {
  int create_attempts{0};
  int directories_created{0};
  int visibility_checks{0};
  int broadcasts{0};
  int allreduces{0};
  bool aborted{false};
};

/// An experiment's archive: the set of partial archive directories.
class ExperimentArchive {
 public:
  /// Runs the hierarchical creation protocol. Throws Error (with
  /// stats->aborted set) if any process ends up without a visible
  /// archive.
  static ExperimentArchive create(const simnet::Topology& topo,
                                  const FileSystemLayout& layout,
                                  const std::string& experiment_name,
                                  CreationStats* stats = nullptr);

  /// Naive baseline: every process blindly attempts creation on its own
  /// file system (counts the redundant attempts the protocol avoids).
  static ExperimentArchive create_naive(const simnet::Topology& topo,
                                        const FileSystemLayout& layout,
                                        const std::string& experiment_name,
                                        CreationStats* stats = nullptr);

  [[nodiscard]] const std::string& experiment_name() const { return name_; }
  /// Partial-archive directory visible from the given metahost.
  [[nodiscard]] const std::string& dir_of(MetahostId m) const;
  /// All distinct partial-archive directories.
  [[nodiscard]] std::vector<std::string> partial_dirs() const;

  /// Writes each rank's local trace into the trace container of its
  /// metahost's partial archive, plus the shared definitions into every
  /// partial archive and one manifest per metahost. Each container is
  /// one ordered fan-out (common/parallel ordered_for): its ranks
  /// encode on up to `max_workers` threads (0 = hardware concurrency),
  /// claimed in rank order, into a ring of two reused writers per
  /// worker, and whichever thread finishes the lowest unwritten rank
  /// appends it and every encoded successor through the one file. The
  /// bytes are identical for any count, at most two blobs per worker
  /// are resident, and threads start once per container, not per
  /// rank. The first encode or append error stops every worker and is
  /// rethrown (an append failure is Io naming the container). Telemetry:
  /// "archive.files_written" counts the files created,
  /// "archive.bytes_on_disk" the bytes (defs replicas + containers,
  /// index and trailer included) and "archive.bytes_in_memory" the
  /// resident size of the collection — the last two give the
  /// trace-format compression ratio the bench sidecars report.
  void write_traces(const simnet::Topology& topo,
                    const tracing::TraceCollection& tc,
                    const WriteOptions& opts) const;
  void write_traces(const simnet::Topology& topo,
                    const tracing::TraceCollection& tc,
                    std::size_t max_workers = 0) const;

  /// Re-assembles the full collection from all partial archives (what a
  /// post-mortem analysis with access to all file systems does; the
  /// streaming analyzer instead maps each rank's blob, see
  /// stream_source).
  /// Each container's index is read and validated once, before any
  /// blob; then each rank maps only its blob's pages and decodes it, on
  /// up to ReadOptions::max_workers threads. Strict by default; see
  /// ReadOptions for the permissive-recovery mode. The optional report
  /// receives the quarantine outcome (cleared first).
  [[nodiscard]] tracing::TraceCollection read_traces(
      const ReadOptions& opts, ReadReport* report = nullptr) const;
  /// Back-compat shim: strict read with a worker-count cap.
  [[nodiscard]] tracing::TraceCollection read_traces(
      std::size_t max_workers = 0) const;

  /// Builds a bounded-memory streaming view of the archive instead of
  /// materializing it: the shared definitions plus each rank's blob
  /// extent (container path, offset, length), with every container
  /// index and every blob validated up front through the windowed
  /// reader (tracing::TraceStream — header, counts, type stream and
  /// column frames are checked; column payloads stay on disk until
  /// replay windows pull them in). Strict mode rethrows the first
  /// failure with container/rank context. Permissive mode quarantines
  /// undecodable ranks in the source (and the report): they stream
  /// zero events and analysis::analyze_streaming filters surviving
  /// ranks' events against them on the fly with the rule
  /// tracing::prune_quarantined applies. Requires a v3 archive (older versions
  /// are VersionMismatch — materialize them with read_traces).
  [[nodiscard]] tracing::StreamSource stream_source(
      const ReadOptions& opts, ReadReport* report = nullptr) const;

 private:
  std::string name_;
  std::vector<std::string> dir_by_metahost_;  ///< indexed by metahost id
  std::vector<std::vector<Rank>> ranks_by_metahost_;
};

}  // namespace metascope::archive
