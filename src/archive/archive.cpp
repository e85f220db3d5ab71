#include "archive/archive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "tracing/epilog_io.hpp"

namespace fs = std::filesystem;

namespace metascope::archive {

// --- FileSystemLayout ----------------------------------------------------

FileSystemLayout FileSystemLayout::shared(const std::string& root,
                                          int num_metahosts) {
  MSC_CHECK(num_metahosts > 0, "layout needs metahosts");
  FileSystemLayout l;
  l.roots_.assign(static_cast<std::size_t>(num_metahosts), root);
  return l;
}

FileSystemLayout FileSystemLayout::per_metahost(const std::string& base,
                                                int num_metahosts) {
  MSC_CHECK(num_metahosts > 0, "layout needs metahosts");
  FileSystemLayout l;
  for (int m = 0; m < num_metahosts; ++m)
    l.roots_.push_back(base + "/fs" + std::to_string(m));
  return l;
}

FileSystemLayout FileSystemLayout::custom(std::vector<std::string> roots) {
  MSC_CHECK(!roots.empty(), "layout needs metahosts");
  FileSystemLayout l;
  l.roots_ = std::move(roots);
  return l;
}

const std::string& FileSystemLayout::root_of(MetahostId m) const {
  MSC_CHECK(m.valid() && static_cast<std::size_t>(m.get()) < roots_.size(),
            "metahost out of layout range");
  return roots_[static_cast<std::size_t>(m.get())];
}

bool FileSystemLayout::same_fs(MetahostId a, MetahostId b) const {
  return root_of(a) == root_of(b);
}

// --- ExperimentArchive ---------------------------------------------------

namespace {

std::string archive_dir_name(const std::string& experiment) {
  return experiment + ".msc";
}

/// Attempts mkdir; true if the directory exists afterwards and either we
/// created it or it was already there from this experiment.
bool try_create(const std::string& path, CreationStats* stats) {
  if (stats) ++stats->create_attempts;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  const bool created = fs::create_directory(path, ec);
  if (created && stats) ++stats->directories_created;
  return created || fs::exists(path);
}

bool is_visible(const std::string& path, CreationStats* stats) {
  if (stats) ++stats->visibility_checks;
  return fs::exists(path);
}

/// One partial archive: its directory and the ranks its trace container
/// holds, ascending.
struct PartialArchive {
  std::string dir;
  std::vector<Rank> ranks;

  [[nodiscard]] std::string container() const {
    return dir + "/" + tracing::container_filename();
  }
};

/// The distinct partial archives, in order of first appearance over the
/// metahosts (metahosts that share a file system share one).
std::vector<PartialArchive> partial_archives(
    const std::vector<std::string>& dir_by_metahost,
    const std::vector<std::vector<Rank>>& ranks_by_metahost) {
  std::vector<PartialArchive> out;
  for (std::size_t m = 0; m < dir_by_metahost.size(); ++m) {
    const std::string& dir = dir_by_metahost[m];
    if (dir.empty()) continue;
    auto it = std::find_if(
        out.begin(), out.end(),
        [&](const PartialArchive& p) { return p.dir == dir; });
    if (it == out.end()) it = out.insert(out.end(), PartialArchive{dir, {}});
    it->ranks.insert(it->ranks.end(), ranks_by_metahost[m].begin(),
                     ranks_by_metahost[m].end());
  }
  for (PartialArchive& p : out) std::sort(p.ranks.begin(), p.ranks.end());
  return out;
}

/// The shared definitions from the first replica that decodes (every
/// partial archive holds one). In permissive mode a corrupt copy just
/// means trying the next one; strict mode fails on the first.
tracing::TraceCollection read_first_defs(
    const std::vector<PartialArchive>& parts, const ReadOptions& opts,
    std::atomic<std::uint64_t>& bytes_read) {
  for (std::size_t i = 0;; ++i) {
    const std::string path = parts[i].dir + "/" + tracing::defs_filename();
    try {
      const MappedFile f = MappedFile::open(path);
      auto tc = tracing::decode_defs(f.data(), f.size(), path);
      bytes_read.fetch_add(f.size(), std::memory_order_relaxed);
      return tc;
    } catch (const Error&) {
      if (!opts.permissive || i + 1 == parts.size()) throw;
    }
  }
}

/// A container's validated index: trailer first, then the index, all
/// before any blob is touched. Adds the bytes read to `bytes_read`.
struct ContainerIndex {
  std::string path;
  std::uint64_t index_offset{0};
  std::vector<tracing::ContainerExtent> extents;

  /// Where rank r's blob lies; Corrupt (naming the index) if the index
  /// has no entry for it.
  [[nodiscard]] tracing::TraceExtent find(Rank r) const {
    const auto it = std::lower_bound(
        extents.begin(), extents.end(), r,
        [](const tracing::ContainerExtent& e, Rank x) { return e.rank < x; });
    if (it == extents.end() || it->rank != r)
      throw Error(ErrorCode::Corrupt,
                  "trace container index has no entry for rank " +
                      std::to_string(r),
                  ErrorContext{path, r,
                               static_cast<std::int64_t>(index_offset)});
    return tracing::TraceExtent{path, it->offset, it->length};
  }
};

ContainerIndex read_index(const PartialArchive& part,
                          std::atomic<std::uint64_t>& bytes_read) {
  ContainerIndex ci;
  ci.path = part.container();
  const std::uint64_t size = file_size(ci.path);
  const std::size_t tail = static_cast<std::size_t>(
      std::min<std::uint64_t>(size, tracing::kContainerTrailerBytes));
  const auto trailer = read_file_range(ci.path, size - tail, tail);
  ci.index_offset = tracing::decode_container_trailer(
      trailer.data(), trailer.size(), size, ci.path);
  const auto index = read_file_range(
      ci.path, ci.index_offset,
      static_cast<std::size_t>(size - tracing::kContainerTrailerBytes -
                               ci.index_offset));
  ci.extents = tracing::decode_container_index(
      index.data(), index.size(), ci.index_offset, part.ranks, ci.path);
  bytes_read.fetch_add(trailer.size() + index.size(),
                       std::memory_order_relaxed);
  return ci;
}

/// Maps rank r's blob — the page-aligned window of its extent, not the
/// container — and runs `step(file, claim)` on it. The step calls
/// `claim(rank the blob names)` as soon as it knows, which rejects a
/// blob filed under another rank. Decode errors come back with
/// container-absolute offsets.
template <typename Step>
void visit_blob(Rank r, const tracing::TraceExtent& at, Step step) {
  const MappedFile f = MappedFile::open(at.path, at.offset,
                                        static_cast<std::size_t>(at.length));
  try {
    step(f, [&](Rank claimed) {
      if (claimed != r)
        throw Error(ErrorCode::Corrupt,
                    "trace blob rank mismatch (blob claims rank " +
                        std::to_string(claimed) + ")",
                    ErrorContext{at.path, r, 0});
    });
  } catch (const Error& e) {
    throw e.offset_by(at.offset);
  }
}

/// The per-rank read fan-out of read_traces and stream_source. Every
/// container index is read and validated first, serially; then each
/// rank's blob is visited on up to opts.max_workers threads by
/// `step(rank, extent, file, claim)` (see visit_blob). A container
/// whose trailer or index fails fails every rank it holds; a blob that
/// fails fails only its rank. A failure is rethrown with container/rank
/// context in strict mode (a blob failure once every blob was visited,
/// the lowest failing rank's, whatever the schedule) and quarantines
/// the rank in permissive mode. Adds `bytes_read` to telemetry and
/// returns the quarantine records sorted by rank (deterministic
/// whatever the reader interleaving).
template <typename Step>
std::vector<QuarantineRecord> read_ranks(
    const std::vector<PartialArchive>& parts, const ReadOptions& opts,
    const char* stage, std::atomic<std::uint64_t>& bytes_read, Step step) {
  // Called on the calling thread only: blob failures are collected
  // during the fan-out and filed after it, lowest rank first.
  std::vector<QuarantineRecord> quarantined;
  const auto fail = [&](Rank r, const std::string& path, const Error& e) {
    if (!opts.permissive) throw e.with_context(ErrorContext{path, r, -1});
    quarantined.push_back(
        QuarantineRecord{r, path, e.code(), e.base_message()});
  };

  std::vector<std::pair<Rank, tracing::TraceExtent>> blobs;
  for (const PartialArchive& part : parts) {
    if (part.ranks.empty()) continue;
    ContainerIndex ci;
    try {
      ci = read_index(part, bytes_read);
    } catch (const Error& e) {
      for (Rank r : part.ranks) fail(r, part.container(), e);
      continue;
    }
    for (Rank r : part.ranks) {
      try {
        blobs.emplace_back(r, ci.find(r));
      } catch (const Error& e) {
        fail(r, ci.path, e);
      }
    }
  }

  std::vector<std::optional<Error>> blob_err(blobs.size());
  telemetry::RecordingObserver rec_obs(
      stage, telemetry::RecordingObserver::fanout_stride(blobs.size()));
  const auto pst = parallel_for(
      blobs.size(), opts.max_workers,
      [&](std::size_t i) {
        const auto& [r, at] = blobs[i];
        try {
          visit_blob(r, at, [&](const MappedFile& f, const auto& claim) {
            step(r, at, f, [&](Rank claimed) {
              claim(claimed);
              bytes_read.fetch_add(f.size(), std::memory_order_relaxed);
            });
          });
        } catch (const Error& e) {
          blob_err[i] = e;
        }
      },
      &rec_obs);
  telemetry::record_stage_parallelism(stage, pst);
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < blobs.size(); ++i)
    if (blob_err[i]) failed.push_back(i);
  std::sort(failed.begin(), failed.end(), [&](std::size_t a, std::size_t b) {
    return blobs[a].first < blobs[b].first;
  });
  for (const std::size_t i : failed)
    fail(blobs[i].first, blobs[i].second.path, *blob_err[i]);
  telemetry::counter("archive.read.bytes")
      .add(bytes_read.load(std::memory_order_relaxed));
  if (!quarantined.empty()) {
    std::sort(quarantined.begin(), quarantined.end(),
              [](const QuarantineRecord& a, const QuarantineRecord& b) {
                return a.rank < b.rank;
              });
    telemetry::counter("archive.read.quarantined").add(quarantined.size());
  }
  return quarantined;
}

}  // namespace

ExperimentArchive ExperimentArchive::create(const simnet::Topology& topo,
                                            const FileSystemLayout& layout,
                                            const std::string& experiment_name,
                                            CreationStats* stats) {
  MSC_CHECK(layout.num_metahosts() == topo.num_metahosts(),
            "layout/topology metahost mismatch");
  CreationStats local_stats;
  CreationStats* st = stats ? stats : &local_stats;

  ExperimentArchive a;
  a.name_ = experiment_name;
  a.dir_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  a.ranks_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    a.ranks_by_metahost_[static_cast<std::size_t>(
                             topo.metahost_of(r).get())]
        .push_back(r);

  const std::string dname = archive_dir_name(experiment_name);

  // Step 1: rank 0 creates the archive on its own file system and
  // broadcasts the outcome (one broadcast, log2(p) messages).
  const MetahostId mh0 = topo.metahost_of(0);
  const std::string dir0 = layout.root_of(mh0) + "/" + dname;
  const bool ok0 = try_create(dir0, st);
  ++st->broadcasts;
  if (!ok0) {
    st->aborted = true;
    throw Error("archive creation failed on rank 0: " + dir0);
  }

  // Step 2: each local master checks visibility on its file system and
  // creates a partial archive if it cannot see one.
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const MetahostId mh{m};
    const std::string dir = layout.root_of(mh) + "/" + dname;
    if (!is_visible(dir, st)) {
      if (!try_create(dir, st)) {
        st->aborted = true;
        throw Error("partial archive creation failed: " + dir);
      }
    }
    a.dir_by_metahost_[static_cast<std::size_t>(m)] = dir;
  }

  // Step 3: every process verifies visibility; one all-reduce combines
  // the results.
  bool all_visible = true;
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const std::string& dir =
        a.dir_by_metahost_[static_cast<std::size_t>(
            topo.metahost_of(r).get())];
    all_visible = is_visible(dir, st) && all_visible;
  }
  ++st->allreduces;
  if (!all_visible) {
    st->aborted = true;
    throw Error("archive invisible to at least one process; aborting");
  }
  return a;
}

ExperimentArchive ExperimentArchive::create_naive(
    const simnet::Topology& topo, const FileSystemLayout& layout,
    const std::string& experiment_name, CreationStats* stats) {
  MSC_CHECK(layout.num_metahosts() == topo.num_metahosts(),
            "layout/topology metahost mismatch");
  CreationStats local_stats;
  CreationStats* st = stats ? stats : &local_stats;

  ExperimentArchive a;
  a.name_ = experiment_name;
  a.dir_by_metahost_.resize(static_cast<std::size_t>(topo.num_metahosts()));
  a.ranks_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  const std::string dname = archive_dir_name(experiment_name);

  // Every process hammers mkdir on its own file system — correct result,
  // O(P) redundant metadata operations (the contention the hierarchical
  // protocol avoids).
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const MetahostId mh = topo.metahost_of(r);
    const std::string dir = layout.root_of(mh) + "/" + dname;
    if (!try_create(dir, st)) {
      st->aborted = true;
      throw Error("archive creation failed: " + dir);
    }
    a.dir_by_metahost_[static_cast<std::size_t>(mh.get())] = dir;
    a.ranks_by_metahost_[static_cast<std::size_t>(mh.get())].push_back(r);
  }
  return a;
}

const std::string& ExperimentArchive::dir_of(MetahostId m) const {
  MSC_CHECK(m.valid() && static_cast<std::size_t>(m.get()) <
                             dir_by_metahost_.size(),
            "metahost out of range");
  const std::string& d = dir_by_metahost_[static_cast<std::size_t>(m.get())];
  MSC_CHECK(!d.empty(), "metahost has no archive directory");
  return d;
}

std::vector<std::string> ExperimentArchive::partial_dirs() const {
  std::vector<std::string> out;
  for (PartialArchive& p :
       partial_archives(dir_by_metahost_, ranks_by_metahost_))
    out.push_back(std::move(p.dir));
  return out;
}

void ExperimentArchive::write_traces(const simnet::Topology& topo,
                                     const tracing::TraceCollection& tc,
                                     const WriteOptions& opts) const {
  MSC_CHECK(tc.num_ranks() == topo.num_ranks(),
            "collection/topology rank mismatch");
  telemetry::ScopedSpan span("archive_write");
  // Every partial archive gets the definitions, one trace container
  // holding the ranks that write there, and one manifest per metahost.
  std::uint64_t bytes_on_disk = 0;
  std::uint64_t files_written = 0;
  const auto parts = partial_archives(dir_by_metahost_, ranks_by_metahost_);
  const auto defs_bytes = tracing::encode_defs(tc);
  for (const PartialArchive& part : parts) {
    write_file_bytes(part.dir + "/" + tracing::defs_filename(), defs_bytes);
    bytes_on_disk += defs_bytes.size();
    ++files_written;
  }

  // One ordered fan-out per container: its ranks encode on up to
  // max_workers threads into a ring of reused writers and are appended
  // in rank order through one file, so the bytes do not depend on the
  // worker count, two blobs per worker are the most ever resident, and
  // once each writer has grown to the largest blob no rank allocates
  // one.
  for (const PartialArchive& part : parts) {
    const std::size_t n = part.ranks.size();
    FileWriter out(part.container());
    std::vector<tracing::ContainerExtent> index;
    index.reserve(n);
    std::vector<BufWriter> ring(ordered_for_slots(n, opts.max_workers));
    telemetry::RecordingObserver rec_obs(
        "archive_write", telemetry::RecordingObserver::fanout_stride(n));
    const auto pst = ordered_for(
        n, opts.max_workers,
        [&](std::size_t i, std::size_t slot) {
          const auto& t = tc.ranks[static_cast<std::size_t>(part.ranks[i])];
          MSC_CHECK(t.rank == part.ranks[i], "collection rank slot mismatch");
          ring[slot].clear();
          tracing::encode_local_trace(t, ring[slot]);
        },
        [&](std::size_t i, std::size_t slot) {
          out.write(ring[slot].data());
          index.push_back({part.ranks[i], 0, ring[slot].size()});
        },
        &rec_obs);
    telemetry::record_stage_parallelism("archive_write", pst);
    out.write(tracing::encode_container_index(index));
    out.close();
    bytes_on_disk += out.size();
    ++files_written;
  }
  telemetry::counter("archive.bytes_on_disk").add(bytes_on_disk);
  telemetry::counter("archive.bytes_in_memory")
      .add(tracing::in_memory_bytes(tc));

  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const MetahostId mh{m};
    Json manifest;
    manifest.set("experiment", name_);
    manifest.set("format_version",
                 static_cast<int>(tracing::kTraceFormatVersion));
    manifest.set("metahost_id", m);
    Json ranks;
    for (Rank r :
         ranks_by_metahost_[static_cast<std::size_t>(m)])
      ranks.push_back(r);
    if (ranks.is_null()) ranks = Json(Json::Array{});
    manifest.set("ranks", ranks);
    save_json_file(dir_of(mh) + "/manifest." + std::to_string(m) + ".json",
                   manifest);
    ++files_written;
  }
  telemetry::counter("archive.files_written").add(files_written);
}

void ExperimentArchive::write_traces(const simnet::Topology& topo,
                                     const tracing::TraceCollection& tc,
                                     std::size_t max_workers) const {
  WriteOptions opts;
  opts.max_workers = max_workers;
  write_traces(topo, tc, opts);
}

std::vector<Rank> ReadReport::quarantined_ranks() const {
  std::vector<Rank> out;
  out.reserve(quarantined.size());
  for (const auto& q : quarantined) out.push_back(q.rank);
  return out;
}

tracing::TraceCollection ExperimentArchive::read_traces(
    const ReadOptions& opts, ReadReport* report) const {
  MSC_CHECK(!dir_by_metahost_.empty(), "empty archive");
  telemetry::ScopedSpan span("archive_read");
  if (report) *report = ReadReport{};

  // The defs header names the rank count, so each rank's slot is
  // pre-sized before any container is opened; each task then decodes
  // one blob straight out of its mapped window into its own slot. A
  // quarantined rank keeps the empty trace decode_defs left there.
  std::atomic<std::uint64_t> bytes_read{0};
  const auto parts = partial_archives(dir_by_metahost_, ranks_by_metahost_);
  tracing::TraceCollection tc = read_first_defs(parts, opts, bytes_read);
  auto quarantined = read_ranks(
      parts, opts, "archive_read", bytes_read,
      [&](Rank r, const tracing::TraceExtent& at, const MappedFile& f,
          const auto& claim) {
        auto trace = tracing::decode_local_trace(f.data(), f.size(), at.path);
        claim(trace.rank);
        tc.ranks[static_cast<std::size_t>(r)] = std::move(trace);
      });

  if (!quarantined.empty()) {
    const std::size_t pruned = tracing::prune_quarantined(
        tc, [&] {
          std::vector<Rank> rs;
          for (const auto& q : quarantined) rs.push_back(q.rank);
          return rs;
        }());
    telemetry::counter("archive.read.pruned_events").add(pruned);
    if (report) {
      report->quarantined = std::move(quarantined);
      report->events_pruned = pruned;
    }
  }
  return tc;
}

tracing::TraceCollection ExperimentArchive::read_traces(
    std::size_t max_workers) const {
  ReadOptions opts;
  opts.max_workers = max_workers;
  return read_traces(opts);
}

tracing::StreamSource ExperimentArchive::stream_source(
    const ReadOptions& opts, ReadReport* report) const {
  MSC_CHECK(!dir_by_metahost_.empty(), "empty archive");
  telemetry::ScopedSpan span("archive_stream_open");
  if (report) *report = ReadReport{};

  tracing::StreamSource src;
  std::atomic<std::uint64_t> bytes_read{0};
  const auto parts = partial_archives(dir_by_metahost_, ranks_by_metahost_);
  src.defs = read_first_defs(parts, opts, bytes_read);
  src.extents.resize(static_cast<std::size_t>(src.defs.num_ranks()));

  // Open-time validation fan-out: everything short of the column
  // payloads is checked per rank, so a corrupt blob is caught (and, in
  // permissive mode, quarantined) before any analysis state exists.
  // The replay maps the blobs again; their bytes are counted as read
  // here, since streaming decodes all of them exactly once.
  auto quarantined = read_ranks(
      parts, opts, "archive_stream_open", bytes_read,
      [&](Rank r, const tracing::TraceExtent& at, const MappedFile& f,
          const auto& claim) {
        tracing::TraceStream s(f.data(), f.size(), at.path);
        claim(s.rank());
        src.extents[static_cast<std::size_t>(r)] = at;
        if (!opts.permissive) return;
        // Quarantine decisions must match read_traces, and open-time
        // validation alone cannot see codec-level corruption inside the
        // column payloads. Permissive mode therefore drains each stream
        // once — windows are decoded and discarded, nothing is
        // materialized — so every rank is classified up front. Strict
        // mode skips the drain: payload corruption surfaces from
        // analyze_streaming's prepare, whose light pass decodes every
        // column, with the same error code and container/rank context.
        std::vector<tracing::Event> sink;
        while (!s.at_end()) {
          sink.clear();
          s.next(sink, 4096);
        }
      });

  for (const auto& q : quarantined) src.quarantined.push_back(q.rank);
  if (report) report->quarantined = std::move(quarantined);
  return src;
}

}  // namespace metascope::archive
