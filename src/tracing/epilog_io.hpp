// Binary trace format ("EPILOG-like"): one definitions file shared by the
// experiment plus one event blob per process. The per-process split is
// what makes the metacomputing archive layout (paper §4 "Runtime archive
// management") natural: each metahost's partial archive holds exactly the
// blobs of its own processes, in one trace container (below).
//
// Format versions (decode accepts all of them; encode writes v3 only —
// see DESIGN.md §5e for the byte-level v3 layout; tests/golden/legacy
// holds v1/v2 sample files):
//
//   v1  row-wise events; each section's count immediately precedes it.
//   v2  row-wise events; both counts moved into the header so a decoder
//       can size its vectors with a single reserve and report truncation
//       up front by checking the counts against the bytes present.
//   v3  columnar: the header additionally carries per-EventType counts,
//       the event kinds are a nibble-packed type stream, and every
//       Event and OffsetRecord field becomes a per-type column —
//       zigzag-delta varints for the integer columns, and
//       self-describing lossless double columns (raw /
//       XOR-of-bit-pattern deltas / scaled-integer deltas with optional
//       per-value ULP residuals, common/column_codec.hpp) for
//       timestamps and byte counts. Decoded values are bit-identical to
//       what was encoded, so severity cubes stay exactly reproducible;
//       archives shrink ~2x against the (already varint-packed) v2.
//
// The defs file layout is shared by all three versions (only the header
// version number differs).
//
// All decoding goes through the bounds-checked Decoder facade
// (common/binary_io.hpp): every failure is an Error carrying an
// ErrorCode (Truncated / Corrupt / VersionMismatch / LimitExceeded)
// plus the source path, rank, and byte offset. Pass `path` so the
// context names the file; callers that only hold bytes may omit it.
// The pointer+size decode overloads are the zero-copy entry points: the
// archive layer passes a MappedFile's view straight in, and the decoder
// reads out of the mapping without an intermediate copy. A v3 trace is
// decoded by tracing::TraceStream (stream.hpp), read as one window
// spanning the file; errors name a file-absolute byte offset.
//
// Id fields (region, peer, tag, comm, root, sync phase/reference rank)
// are 64-bit on disk but 32-bit in memory; every decoder rejects a value
// outside int32 as Corrupt, naming the column, instead of narrowing it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing {

/// Newest (and only written) trace format version.
inline constexpr std::uint32_t kTraceFormatVersion = 3;
/// Oldest version the decoders still read.
inline constexpr std::uint32_t kMinTraceFormatVersion = 1;

/// Sanity cap on the rank count a defs file may declare (well above any
/// simulated metacomputer; bounds the decoder's up-front allocation).
inline constexpr std::uint64_t kMaxRanksPerArchive = 1ULL << 22;

/// Serialization of the shared definition records (+ collection flags).
std::vector<std::uint8_t> encode_defs(const TraceCollection& tc);

/// Decodes definitions into an empty collection (ranks left empty but
/// sized; scheme/synchronized restored). Accepts every known version.
TraceCollection decode_defs(const std::uint8_t* data, std::size_t size,
                            const std::string& path = {});
TraceCollection decode_defs(const std::vector<std::uint8_t>& bytes,
                            const std::string& path = {});

/// Serialization of one process's events + sync records.
std::vector<std::uint8_t> encode_local_trace(const LocalTrace& trace);
/// The same bytes appended to `out`: a writer that is cleared and
/// reused for rank after rank stops allocating once it has grown to the
/// largest trace.
void encode_local_trace(const LocalTrace& trace, BufWriter& out);

/// Decodes a trace file of any known version (the header's version
/// field selects the layout). The pointer overload borrows the buffer —
/// nothing is copied out of it except the decoded trace itself.
LocalTrace decode_local_trace(const std::uint8_t* data, std::size_t size,
                              const std::string& path = {});
LocalTrace decode_local_trace(const std::vector<std::uint8_t>& bytes,
                              const std::string& path = {});

// ---- trace containers ---------------------------------------------------
//
// A partial archive keeps all of its ranks' traces in one container
// file (container_filename()): each rank's blob, exactly as
// encode_local_trace produces it, in ascending rank order; then an
// index (a varint entry count, then per rank its id and blob length as
// varints); then a fixed trailer of kContainerTrailerBytes: the index's
// byte offset (u64), the container magic (u32) and the container
// version (u32). DESIGN.md §5e has the byte table, §5d the validation
// order. Container errors name the path and a container-absolute byte
// offset; the archive layer adds the rank.

/// Newest (and only) container version.
inline constexpr std::uint32_t kContainerVersion = 1;
inline constexpr std::size_t kContainerTrailerBytes = 16;

/// Where one rank's blob lies inside its container.
struct ContainerExtent {
  Rank rank{kNoRank};
  std::uint64_t offset{0};  ///< container-absolute
  std::uint64_t length{0};
};

/// The index and trailer that close a container whose blobs — one per
/// entry, in entry order, ranks ascending — make up everything before
/// them. Only each entry's rank and length are used.
std::vector<std::uint8_t> encode_container_index(
    const std::vector<ContainerExtent>& entries);

/// Reads a container's trailer. `tail` holds the container's last
/// min(size, kContainerTrailerBytes) bytes and `size` is the
/// container's length. Returns the index offset. Truncated if the
/// container is shorter than a trailer or the index would start past
/// the trailer; Corrupt on a bad magic; VersionMismatch on another
/// container version.
std::uint64_t decode_container_trailer(const std::uint8_t* tail,
                                       std::size_t tail_size,
                                       std::uint64_t size,
                                       const std::string& path = {});

/// Parses and validates a container's index: the `index_size` bytes
/// from `index_offset` up to the trailer. `holds` lists the ranks the
/// container's directory holds, ascending. The entry count is capped by
/// kMaxRanksPerArchive (LimitExceeded) and by the bytes present
/// (Truncated); ranks must be strictly ascending and held, and the
/// lengths must sum exactly to the blob region [0, index_offset)
/// (Corrupt). Returns one extent per entry, ranks ascending; a held
/// rank may be absent (the archive layer fails that rank alone).
std::vector<ContainerExtent> decode_container_index(
    const std::uint8_t* index, std::size_t index_size,
    std::uint64_t index_offset, const std::vector<Rank>& holds,
    const std::string& path = {});

/// Trailer and index of a whole container held in memory.
std::vector<ContainerExtent> decode_container(const std::uint8_t* data,
                                              std::size_t size,
                                              const std::vector<Rank>& holds,
                                              const std::string& path = {});

/// Conventional file names inside an archive directory.
std::string defs_filename();
std::string container_filename();
/// Per-rank trace files of the directory layout write_collection and
/// read_collection use (the committed v1/v2 fixtures are laid out so).
std::string trace_filename(Rank rank);

/// Writes defs + one file per rank into `dir` (must exist).
void write_collection(const std::string& dir, const TraceCollection& tc);

/// Reads a collection previously written by write_collection.
TraceCollection read_collection(const std::string& dir);

}  // namespace metascope::tracing
