#include "archive/archive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
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

/// The shared definitions from the first replica that decodes (every
/// partial archive in `dirs` holds one). In permissive mode a corrupt
/// copy just means trying the next one; strict mode fails on the first.
tracing::TraceCollection read_first_defs(
    const std::vector<std::string>& dirs, const ReadOptions& opts,
    std::atomic<std::uint64_t>& bytes_read) {
  for (std::size_t i = 0;; ++i) {
    const std::string path = dirs[i] + "/" + tracing::defs_filename();
    try {
      const MappedFile f = MappedFile::open(path);
      auto tc = tracing::decode_defs(f.data(), f.size(), path);
      bytes_read.fetch_add(f.size(), std::memory_order_relaxed);
      return tc;
    } catch (const Error&) {
      if (!opts.permissive || i + 1 == dirs.size()) throw;
    }
  }
}

/// Every rank's trace file, flattened over the partial archives.
std::vector<std::pair<Rank, std::string>> rank_files(
    const std::vector<std::string>& dirs,
    const std::vector<std::vector<Rank>>& ranks_by_metahost) {
  std::vector<std::pair<Rank, std::string>> files;
  for (std::size_t m = 0; m < dirs.size(); ++m)
    for (Rank r : ranks_by_metahost[m])
      files.emplace_back(r, dirs[m] + "/" + tracing::trace_filename(r));
  return files;
}

/// The per-rank read fan-out of read_traces and stream_source: maps each
/// rank's file and runs `step(rank, path, file, claim)` on it. The step
/// decodes or validates the bytes and calls `claim(rank the file
/// names)` as soon as it knows, which counts the file's bytes and
/// rejects a rank mismatch. A failure is rethrown with file/rank
/// context in strict mode and quarantines the rank in permissive mode.
/// Adds `bytes_read` to telemetry and returns the quarantine records
/// sorted by rank (deterministic whatever the reader interleaving).
template <typename Step>
std::vector<QuarantineRecord> read_rank_files(
    const std::vector<std::pair<Rank, std::string>>& files,
    const ReadOptions& opts, const char* stage,
    std::atomic<std::uint64_t>& bytes_read, Step step) {
  std::mutex quarantine_mu;
  std::vector<QuarantineRecord> quarantined;
  telemetry::RecordingObserver rec_obs(
      stage, telemetry::RecordingObserver::fanout_stride(files.size()));
  const auto pst = parallel_for(
      files.size(), opts.max_workers,
      [&](std::size_t i) {
        const auto& [r, path] = files[i];
        try {
          const MappedFile f = MappedFile::open(path);
          step(r, path, f, [&](Rank claimed) {
            bytes_read.fetch_add(f.size(), std::memory_order_relaxed);
            if (claimed != r)
              throw Error(ErrorCode::Corrupt,
                          "trace file rank mismatch (file claims rank " +
                              std::to_string(claimed) + ")",
                          ErrorContext{path, r, -1});
          });
        } catch (const Error& e) {
          if (!opts.permissive) throw e.with_context(ErrorContext{path, r, -1});
          const std::lock_guard<std::mutex> lock(quarantine_mu);
          quarantined.push_back(
              QuarantineRecord{r, path, e.code(), e.base_message()});
        }
      },
      &rec_obs);
  telemetry::record_stage_parallelism(stage, pst);
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
  for (const auto& d : dir_by_metahost_)
    if (!d.empty() && std::find(out.begin(), out.end(), d) == out.end())
      out.push_back(d);
  return out;
}

void ExperimentArchive::write_traces(const simnet::Topology& topo,
                                     const tracing::TraceCollection& tc,
                                     const WriteOptions& opts) const {
  MSC_CHECK(tc.num_ranks() == topo.num_ranks(),
            "collection/topology rank mismatch");
  telemetry::ScopedSpan span("archive_write");
  // Definitions + manifest go into every partial archive; each rank's
  // trace goes only where that rank can write.
  std::atomic<std::uint64_t> bytes_on_disk{0};
  const auto defs_bytes = tracing::encode_defs(tc);
  for (const std::string& dir : partial_dirs()) {
    write_file_bytes(dir + "/" + tracing::defs_filename(), defs_bytes);
    bytes_on_disk.fetch_add(defs_bytes.size(), std::memory_order_relaxed);
  }

  // One task per rank: encode + write its own trace file. Files are
  // distinct paths, so the fan-out never contends on a target.
  telemetry::RecordingObserver rec_obs(
      "archive_write",
      telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), opts.max_workers,
      [&](std::size_t i) {
        const auto& t = tc.ranks[i];
        const std::string& dir = dir_of(topo.metahost_of(t.rank));
        const auto bytes = tracing::encode_local_trace(t);
        write_file_bytes(dir + "/" + tracing::trace_filename(t.rank), bytes);
        bytes_on_disk.fetch_add(bytes.size(), std::memory_order_relaxed);
      },
      &rec_obs);
  telemetry::record_stage_parallelism("archive_write", pst);
  telemetry::counter("archive.bytes_on_disk")
      .add(bytes_on_disk.load(std::memory_order_relaxed));
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
  }
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
  // pre-sized before any trace file is opened; each task then decodes
  // one file straight out of its mapping into its own slot. A
  // quarantined rank keeps the empty trace decode_defs left there.
  std::atomic<std::uint64_t> bytes_read{0};
  tracing::TraceCollection tc =
      read_first_defs(partial_dirs(), opts, bytes_read);
  auto quarantined = read_rank_files(
      rank_files(dir_by_metahost_, ranks_by_metahost_), opts,
      "archive_read", bytes_read,
      [&](Rank r, const std::string& path, const MappedFile& f,
          const auto& claim) {
        auto trace = tracing::decode_local_trace(f.data(), f.size(), path);
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
  src.defs = read_first_defs(partial_dirs(), opts, bytes_read);
  const auto files = rank_files(dir_by_metahost_, ranks_by_metahost_);
  src.paths.resize(static_cast<std::size_t>(src.defs.num_ranks()));
  for (const auto& [r, path] : files)
    src.paths[static_cast<std::size_t>(r)] = path;

  // Open-time validation fan-out: everything short of the column
  // payloads is checked per rank, so a corrupt file is caught (and, in
  // permissive mode, quarantined) before any analysis state exists.
  // The replay re-opens the files; the whole file's bytes are counted
  // as read here, since streaming decodes all of them exactly once.
  auto quarantined = read_rank_files(
      files, opts, "archive_stream_open", bytes_read,
      [&](Rank, const std::string& path, const MappedFile& f,
          const auto& claim) {
        tracing::TraceStream s(f.data(), f.size(), path);
        claim(s.rank());
        if (!opts.permissive) return;
        // Quarantine decisions must match read_traces, and open-time
        // validation alone cannot see codec-level corruption inside the
        // column payloads. Permissive mode therefore drains each stream
        // once — windows are decoded and discarded, nothing is
        // materialized — so every rank is classified up front. Strict
        // mode skips the drain: payload corruption surfaces from
        // whichever replay window decodes it, with the same error code
        // and file/rank context.
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

tracing::LocalTrace ExperimentArchive::read_local_trace(
    const simnet::Topology& topo, Rank r) const {
  const std::string path =
      dir_of(topo.metahost_of(r)) + "/" + tracing::trace_filename(r);
  try {
    const MappedFile f = MappedFile::open(path);
    return tracing::decode_local_trace(f.data(), f.size(), path);
  } catch (const Error& e) {
    throw e.with_context(ErrorContext{path, r, -1});
  }
}

tracing::TraceCollection ExperimentArchive::read_defs(MetahostId m) const {
  const std::string path = dir_of(m) + "/" + tracing::defs_filename();
  const MappedFile f = MappedFile::open(path);
  return tracing::decode_defs(f.data(), f.size(), path);
}

}  // namespace metascope::archive
