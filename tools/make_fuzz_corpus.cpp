// make_fuzz_corpus — generates the seed corpus for the fuzz harnesses.
//
// Usage: make_fuzz_corpus <outdir>
//
// Runs a miniature two-metahost experiment, encodes its real defs and
// per-rank trace files in the current (v3 columnar) format, copies one
// trace in each legacy row-wise format from the committed fixtures
// (tests/golden/legacy — only v3 is still written), and writes them
// together with structured mutants (truncations, bad magic, future
// version, and v3-specific corners: bad type nibbles, count mismatches,
// broken column frames, bad XOR lead bytes / scale indices / residual
// widths) into one subdirectory per harness:
//
//   <outdir>/trace_decode/       defs + trace bytes (also seeds sync_decode)
//   <outdir>/sync_decode/        trace bytes rich in sync records
//   <outdir>/config_json/        valid experiment configs
//   <outdir>/archive_container/  trace containers: the experiment's own
//                                and mutants of its trailer and index
//   <outdir>/column_codec/       value columns for the encoders: the
//                                experiment's timestamps and byte
//                                counts, grids, nudged grids and
//                                special values
//   <outdir>/analysis_modes/     trace containers of scheme-none runs
//                                of fuzz_analysis_modes' experiment
//                                (tests/fuzz/analysis_modes_seed.hpp),
//                                and damaged copies of the first
//
// Seeding with real encodings matters: libFuzzer mutates from these, so
// it starts past the magic/version gate instead of spending its budget
// rediscovering four magic bytes. Deterministic output (fixed seeds) —
// CI caches the corpus keyed on the harness sources.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis_modes_seed.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/config.hpp"
#include "workloads/experiment.hpp"

namespace fs = std::filesystem;
using namespace metascope;

namespace {

const char* kSeedConfig = R"({
  "name": "fuzz-seed",
  "seed": 7,
  "topology": {
    "metahosts": [
      {"name": "A", "nodes": 1, "cpus_per_node": 2, "latency_us": 20},
      {"name": "B", "nodes": 1, "cpus_per_node": 2, "latency_us": 30}
    ],
    "external": {"latency_us": 500, "bandwidth_gbps": 1.0},
    "placement": [
      {"metahost": 0, "nodes": 1, "procs_per_node": 2},
      {"metahost": 1, "nodes": 1, "procs_per_node": 2}
    ]
  },
  "workload": {"kind": "metatrace", "coupling_steps": 2,
               "cg_iterations": 4, "field_mb_total": 8},
  "sync": "hierarchical-two"
})";

const char* kClockbenchConfig = R"({
  "name": "fuzz-clockbench",
  "topology": {
    "metahosts": [{"name": "A", "nodes": 1, "cpus_per_node": 2}],
    "placement": [{"metahost": 0, "nodes": 1, "procs_per_node": 2}]
  },
  "workload": {"kind": "clockbench", "rounds": 16},
  "sync": "flat-two"
})";

const char* kPatternConfig = R"({
  "name": "fuzz-pattern",
  "topology": {
    "metahosts": [{"name": "A", "nodes": 1, "cpus_per_node": 2}],
    "placement": [{"metahost": 0, "nodes": 1, "procs_per_node": 2}]
  },
  "workload": {"kind": "pattern-demo", "pattern": "late-sender"},
  "sync": "none"
})";

void put(const fs::path& dir, const std::string& name,
         const std::vector<std::uint8_t>& bytes) {
  write_file_bytes((dir / name).string(), bytes);
  std::printf("  %s (%zu bytes)\n", (dir / name).string().c_str(),
              bytes.size());
}

void put_text(const fs::path& dir, const std::string& name,
              const std::string& text) {
  put(dir, name,
      std::vector<std::uint8_t>(text.begin(), text.end()));
}

/// Structured mutants of a valid encoding: the decode-path corners a
/// random mutator takes longest to reach.
void put_mutants(const fs::path& dir, const std::string& stem,
                 const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() > 1) {
    put(dir, stem + "_trunc_half",
        std::vector<std::uint8_t>(bytes.begin(),
                                  bytes.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          bytes.size() / 2)));
    put(dir, stem + "_trunc_1",
        std::vector<std::uint8_t>(bytes.begin(), bytes.end() - 1));
  }
  if (bytes.size() >= 8) {
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    put(dir, stem + "_bad_magic", bad_magic);
    auto bad_version = bytes;
    bad_version[4] = 0x7F;  // far-future format version
    put(dir, stem + "_bad_version", bad_version);
  }
}

/// A minimal v3 trace whose header layout is byte-addressable: rank 1,
/// no sync records, two Enter events. Offsets (all varints one byte):
/// rank@8, nsync@9, nev@10, per-type counts@11..15, type stream@16,
/// time-column frame length@17, time payload@18.
std::vector<std::uint8_t> small_v3_trace() {
  tracing::LocalTrace t;
  t.rank = 1;
  for (int i = 1; i <= 2; ++i) {
    tracing::Event e;
    e.type = tracing::EventType::Enter;
    e.time = 1.0e-3 * i;
    e.region = RegionId{i};
    t.events.push_back(e);
  }
  return tracing::encode_local_trace(t);
}

/// Replaces the time column of the minimal v3 trace with a hand-built
/// payload, dropping everything after it (the decoder throws inside the
/// time column, so later columns are never reached).
std::vector<std::uint8_t> with_time_payload(
    const std::vector<std::uint8_t>& payload) {
  auto bytes = small_v3_trace();
  bytes.resize(17);  // keep header + type stream, drop the time frame
  bytes.push_back(static_cast<std::uint8_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// v3-specific structured mutants: columnar-format corners (type-stream
/// nibbles, per-type count cross-checks, column frames) and the double
/// codec's validated fields (XOR lead bytes, scale indices, residual
/// widths). Each hits one exact ErrorCode in the corruption matrix.
void put_v3_mutants(const fs::path& dir) {
  const auto base = small_v3_trace();

  auto bad_nibble = base;
  bad_nibble[16] = 0x07;  // event type 7: no such type
  put(dir, "v3_bad_nibble", bad_nibble);

  auto type_mismatch = base;
  type_mismatch[16] = 0x10;  // second nibble says Exit; header says Enter
  put(dir, "v3_type_count_mismatch", type_mismatch);

  auto count_sum = base;
  count_sum[11] = 3;  // per-type counts sum to 3, header declares 2 events
  put(dir, "v3_count_sum_mismatch", count_sum);

  auto col_len = base;
  col_len[17] += 1;  // frame longer than the codec consumes
  put(dir, "v3_column_len_mismatch", col_len);

  put(dir, "v3_trunc_column",  // cut mid time column
      std::vector<std::uint8_t>(base.begin(), base.begin() + 19));

  auto overrun = base;
  overrun[17] = 200;  // frame declares more bytes than the file holds
  put(dir, "v3_column_overrun", overrun);

  // Codec-level corners: mode byte + the first validated field.
  put(dir, "v3_bad_xor_lead", with_time_payload({0x01, 0x41}));      // 65>64
  put(dir, "v3_bad_scale_index", with_time_payload({0x02, 0xC8}));   // 200
  put(dir, "v3_bad_res_width", with_time_payload({0x04, 0x00, 0x41}));
  put(dir, "v3_bad_mode", with_time_payload({0x2A}));  // unknown mode 42
}

/// Truncated-mid-block mutants for the windowed reader: a trace large
/// enough that the streaming analyzer needs several decode windows per
/// column, cut at points that land inside the later columns (past the
/// type stream and the time column), so the lazy block-decode path hits
/// end-of-file in the middle of a chunked cursor refill rather than at
/// a frame boundary.
void put_midblock_mutants(const fs::path& dir) {
  tracing::LocalTrace t;
  t.rank = 2;
  double now = 0.0;
  for (int i = 0; i < 400; ++i) {
    tracing::Event enter;
    enter.type = tracing::EventType::Enter;
    enter.time = now;
    enter.region = RegionId{1 + (i % 5)};
    t.events.push_back(enter);
    tracing::Event send;
    send.type = i % 2 == 0 ? tracing::EventType::Send
                           : tracing::EventType::Recv;
    send.time = now + 1e-5;
    send.peer = (i * 7) % 4;
    send.tag = i;
    send.bytes = 64.0 * (1 + i % 9);
    send.comm = CommId{0};
    t.events.push_back(send);
    tracing::Event exit;
    exit.type = tracing::EventType::Exit;
    exit.time = now + 3e-5;
    t.events.push_back(exit);
    now += 4.7e-5;
  }
  const auto bytes = tracing::encode_local_trace(t);
  for (const int pct : {55, 70, 85, 97}) {
    put(dir, "v3_trunc_midblock_" + std::to_string(pct),
        std::vector<std::uint8_t>(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(
                                bytes.size() * static_cast<std::size_t>(pct) /
                                100)));
  }
  put(dir, "v3_multiwindow", bytes);
}

/// A container over `region` (the blobs) closed by an index of the
/// given varints and a valid trailer ("MCSC", current version).
std::vector<std::uint8_t> container_with_index(
    const std::vector<std::uint8_t>& region,
    const std::vector<std::uint64_t>& index) {
  BufWriter w;
  w.put_bytes(region.data(), region.size());
  for (const std::uint64_t v : index) w.put_varint(v);
  w.put_u64(region.size());
  w.put_u32(0x4353434DU);  // "MCSC"
  w.put_u32(tracing::kContainerVersion);
  return w.data();
}

/// The experiment's traces as one container (every rank, in order) plus
/// mutants aimed at each check of the trailer and the index.
void put_container_seeds(const fs::path& dir,
                         const tracing::TraceCollection& tc) {
  std::vector<std::uint8_t> region;
  std::vector<tracing::ContainerExtent> index;
  std::vector<std::uint64_t> entries;
  for (const auto& t : tc.ranks) {
    const auto blob = tracing::encode_local_trace(t);
    region.insert(region.end(), blob.begin(), blob.end());
    index.push_back({t.rank, 0, blob.size()});
    entries.push_back(static_cast<std::uint64_t>(t.rank));
    entries.push_back(blob.size());
  }
  auto container = region;
  const auto tail = tracing::encode_container_index(index);
  container.insert(container.end(), tail.begin(), tail.end());
  put(dir, "container", container);
  put(dir, "container_empty", tracing::encode_container_index({}));

  auto bad_magic = container;
  bad_magic[bad_magic.size() - 8] ^= 0xFF;
  put(dir, "container_bad_trailer_magic", bad_magic);
  auto future = container;
  future[future.size() - 4] = 0x7F;  // far-future container version
  put(dir, "container_future_version", future);

  const std::uint64_t n = index.size();
  auto with = [&](std::vector<std::uint64_t> e) {
    e.insert(e.begin(), n);
    return container_with_index(region, e);
  };
  auto overrun = entries;
  overrun.back() += 1;
  put(dir, "container_lengths_overrun", with(overrun));
  auto short_of = entries;
  short_of.back() -= 1;
  put(dir, "container_lengths_short", with(short_of));
  auto descending = entries;  // first two entries swapped
  std::swap(descending[0], descending[2]);
  std::swap(descending[1], descending[3]);
  put(dir, "container_descending_ranks", with(descending));
  auto cut = entries;
  cut.pop_back();  // the last entry loses its length
  put(dir, "container_truncated_index", with(cut));
}

/// Every rank's blob of `tc` in rank order, then the index and trailer:
/// the container ExperimentArchive::write_traces writes for one shared
/// file system.
std::vector<std::uint8_t> container_of(const tracing::TraceCollection& tc) {
  std::vector<std::uint8_t> out;
  std::vector<tracing::ContainerExtent> index;
  for (const auto& t : tc.ranks) {
    const auto blob = tracing::encode_local_trace(t);
    out.insert(out.end(), blob.begin(), blob.end());
    index.push_back({t.rank, 0, blob.size()});
  }
  const auto tail = tracing::encode_container_index(index);
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// Seeds for fuzz_analysis_modes: the container of each run, then two
/// damaged copies of the first run, one with rank 0's first Send erased
/// (an unmatched receive for both joins) and one with a byte of rank 1's
/// blob flipped halfway through.
void put_analysis_modes_seeds(const fs::path& dir) {
  tracing::TraceCollection first;
  for (const std::uint64_t seed : fuzz::kAnalysisModesSeeds) {
    Json doc = Json::parse(fuzz::kAnalysisModesConfig);
    doc.set("seed", static_cast<std::int64_t>(seed));
    const auto spec = workloads::parse_experiment(doc);
    auto data =
        workloads::run_experiment(spec.topology, spec.program, spec.config);
    put(dir, "run_seed" + std::to_string(seed), container_of(data.traces));
    if (first.ranks.empty()) first = std::move(data.traces);
  }

  auto unmatched = first;
  auto& events = unmatched.ranks[0].events;
  const auto send = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.type == tracing::EventType::Send;
  });
  if (send != events.end()) {
    events.erase(send);
    put(dir, "unmatched_recv", container_of(unmatched));
  }

  auto flipped = container_of(first);
  const std::size_t rank0 =
      tracing::encode_local_trace(first.ranks[0]).size();
  const std::size_t rank1 =
      tracing::encode_local_trace(first.ranks[1]).size();
  flipped[rank0 + rank1 / 2] ^= 0x5A;
  put(dir, "payload_flip_rank1", flipped);
}

/// One fuzz_column_codec input: a shape byte (see the harness) and one
/// little-endian word per row.
std::vector<std::uint8_t> column_seed(std::uint8_t shape,
                                      const std::vector<std::uint64_t>& words) {
  BufWriter w;
  w.put_u8(shape);
  for (const std::uint64_t x : words) w.put_u64(x);
  return w.take();
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Seeds for fuzz_column_codec. Shape bytes: low two bits 0 = raw bit
/// patterns, 1 = grid, 2 = nudged grid, 3 = nudged running sum; bits
/// 2..4 the scale index (3 = 1e-7, the clock granularity).
void put_column_seeds(const fs::path& dir,
                      const tracing::TraceCollection& tc) {
  for (const auto& t : tc.ranks) {
    std::vector<std::uint64_t> time, bytes;
    for (const auto& e : t.events) {
      time.push_back(bits_of(e.time));
      if (e.type == tracing::EventType::Send) bytes.push_back(bits_of(e.bytes));
    }
    const std::string stem = "rank" + std::to_string(t.rank);
    put(dir, stem + "_time", column_seed(0, time));
    put(dir, stem + "_send_bytes", column_seed(0, bytes));
  }
  std::vector<std::uint64_t> steps;
  for (std::uint64_t i = 0; i < 200; ++i)
    steps.push_back((13 + i % 5) | ((i % 7 == 0 ? 1ULL : 0ULL) << 32));
  put(dir, "grid_1e-7", column_seed((3 << 2) | 1, steps));
  put(dir, "nudged_grid_1e-7", column_seed((3 << 2) | 2, steps));
  put(dir, "stamps_1e-7", column_seed((3 << 2) | 3, steps));
  put(dir, "stamps_1", column_seed(3, steps));
  put(dir, "specials",
      column_seed(0, {bits_of(0.0), bits_of(-0.0), 0x7FF0000000000000ULL,
                      0xFFF0000000000000ULL, 0x7FF8000000000F0FULL, 1ULL,
                      0x8000000000000001ULL, bits_of(0.5), bits_of(-2.5),
                      bits_of(9.0e15), bits_of(8999999999999999.0)}));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  try {
    const fs::path out = argv[1];
    const fs::path trace_dir = out / "trace_decode";
    const fs::path sync_dir = out / "sync_decode";
    const fs::path config_dir = out / "config_json";
    const fs::path container_dir = out / "archive_container";
    const fs::path column_dir = out / "column_codec";
    const fs::path modes_dir = out / "analysis_modes";
    fs::create_directories(column_dir);
    fs::create_directories(modes_dir);
    fs::create_directories(trace_dir);
    fs::create_directories(sync_dir);
    fs::create_directories(config_dir);
    fs::create_directories(container_dir);

    workloads::ExperimentSpec spec =
        workloads::parse_experiment(Json::parse(kSeedConfig));
    auto data =
        workloads::run_experiment(spec.topology, spec.program, spec.config);

    const auto defs = tracing::encode_defs(data.traces);
    put(trace_dir, "defs", defs);
    put_mutants(trace_dir, "defs", defs);
    for (const auto& t : data.traces.ranks) {
      const auto bytes = tracing::encode_local_trace(t);
      const std::string stem = "rank" + std::to_string(t.rank);
      put(trace_dir, stem, bytes);
      put(sync_dir, stem, bytes);
      if (t.rank == 0) put_mutants(trace_dir, stem, bytes);
    }
    // The legacy row-wise encodings stay decodable behind the version
    // switch — seed both so mutation keeps covering them.
    for (const char* v : {"v1", "v2"})
      put(trace_dir, std::string("legacy_") + v,
          read_file_bytes(std::string(MSC_LEGACY_DIR) + "/mixed." + v +
                          ".elg"));
    put_v3_mutants(trace_dir);
    put_midblock_mutants(trace_dir);
    put_container_seeds(container_dir, data.traces);
    put_column_seeds(column_dir, data.traces);
    put_analysis_modes_seeds(modes_dir);
    // An empty trace is valid too — seed the minimal accepting input.
    tracing::LocalTrace empty;
    empty.rank = 0;
    put(trace_dir, "empty_trace", tracing::encode_local_trace(empty));

    put_text(config_dir, "metatrace.json", kSeedConfig);
    put_text(config_dir, "clockbench.json", kClockbenchConfig);
    put_text(config_dir, "pattern.json", kPatternConfig);

    std::printf("corpus written to %s\n", out.string().c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "make_fuzz_corpus: %s\n", e.what());
    return 1;
  }
}
