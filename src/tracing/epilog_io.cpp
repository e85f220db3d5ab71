#include "tracing/epilog_io.hpp"

#include <algorithm>
#include <array>

#include "common/binary_io.hpp"
#include "common/column_codec.hpp"
#include "common/error.hpp"
#include "tracing/stream.hpp"
#include "tracing/v3_blocks.hpp"

namespace metascope::tracing {

namespace {
constexpr std::uint32_t kDefsMagic = 0x4453434DU;       // "MCSD"
constexpr std::uint32_t kContainerMagic = 0x4353434DU;  // "MCSC"
using v3::kNumEventTypes;
using v3::kTraceMagic;

// Cheapest possible encodings, used to validate header counts against
// the bytes actually present before reserving anything: a row-wise
// (v1/v2) sync record is >= 26 bytes (u8 + 1-byte svarint + 3 f64), a
// row-wise event >= 9 (u8 type + f64 time); defs-table entries bottom
// out at their field prefixes.
constexpr std::size_t kMinSyncRecordBytes = 26;
constexpr std::size_t kMinEventBytes = 9;
constexpr std::size_t kMinRegionBytes = 1;    // string length prefix
constexpr std::size_t kMinMetahostBytes = 2;  // id + name prefix
constexpr std::size_t kMinLocationBytes = 4;  // four svarints
constexpr std::size_t kMinCommBytes = 3;      // id + name prefix + count

/// One id field of a row-wise (v1/v2) record, named like its v3 column.
std::int32_t get_id(Decoder& d, const char* what) {
  const std::int64_t v = d.get_svarint();
  if (v != static_cast<std::int32_t>(v))
    v3::check_int32(&v, 1, what, d.context());
  return static_cast<std::int32_t>(v);
}

// ---- sync records (row layout, v1/v2) -------------------------------

void decode_sync_rows(Decoder& d, LocalTrace& t, std::uint64_t nsync) {
  t.sync.reserve(static_cast<std::size_t>(nsync));
  for (std::uint64_t i = 0; i < nsync; ++i) {
    OffsetRecord s;
    s.phase = d.get_u8();
    s.ref_rank = get_id(d, "sync.ref_rank");
    s.local_mid = d.get_f64();
    s.offset = d.get_f64();
    s.error_bound = d.get_f64();
    t.sync.push_back(s);
  }
}

// ---- row-wise events (v1/v2) ----------------------------------------

void decode_event_rows(Decoder& d, LocalTrace& t, std::uint64_t nev) {
  t.events.reserve(static_cast<std::size_t>(nev));
  for (std::uint64_t i = 0; i < nev; ++i) {
    Event e;
    const std::uint8_t type = d.get_u8();
    e.time = d.get_f64();
    switch (static_cast<EventType>(type)) {
      case EventType::Enter:
        e.type = EventType::Enter;
        e.region = RegionId{get_id(d, "enter.region")};
        break;
      case EventType::Exit:
        e.type = EventType::Exit;
        break;
      case EventType::Send:
      case EventType::Recv: {
        e.type = static_cast<EventType>(type);
        const bool send = e.type == EventType::Send;
        e.peer = get_id(d, send ? "send.peer" : "recv.peer");
        e.tag = get_id(d, send ? "send.tag" : "recv.tag");
        e.bytes = d.get_f64();
        e.comm = CommId{get_id(d, send ? "send.comm" : "recv.comm")};
        break;
      }
      case EventType::CollExit:
        e.type = EventType::CollExit;
        e.region = RegionId{get_id(d, "collexit.region")};
        e.comm = CommId{get_id(d, "collexit.comm")};
        e.root = get_id(d, "collexit.root");
        e.bytes = d.get_f64();
        e.sent_bytes = d.get_f64();
        e.recvd_bytes = d.get_f64();
        break;
      default:
        d.fail(ErrorCode::Corrupt, "corrupt trace: unknown event type " +
                                       std::to_string(static_cast<int>(type)));
    }
    t.events.push_back(e);
  }
}

// ---- columnar events (v3) -------------------------------------------
//
// Written here, read by TraceStream (tracing/stream.cpp). Layout after
// the sync columns (see DESIGN.md §5e):
//   - nibble-packed type stream: ceil(nevents/2) bytes, low nibble =
//     even-index event, high nibble = odd-index event; a trailing unused
//     high nibble must be zero;
//   - framed columns in fixed order, each a varint byte-length followed
//     by that many payload bytes. A column whose row count is zero is
//     omitted entirely (the counts in the header make this unambiguous).
// Column order: time (all events, stream order); Enter.region;
// Send.peer/tag/bytes/comm; Recv.peer/tag/bytes/comm;
// CollExit.region/comm/root/bytes/sent/recvd.

/// Per-type field vectors gathered from the interleaved event stream.
struct EventColumns {
  std::vector<double> time;  // all events, stream order
  std::vector<std::int64_t> enter_region;
  std::vector<std::int64_t> send_peer, send_tag, send_comm;
  std::vector<double> send_bytes;
  std::vector<std::int64_t> recv_peer, recv_tag, recv_comm;
  std::vector<double> recv_bytes;
  std::vector<std::int64_t> coll_region, coll_comm, coll_root;
  std::vector<double> coll_bytes, coll_sent, coll_recvd;
};

/// Encodes a column straight into `w`, then puts its byte length in
/// front of it (the payload moves up by the prefix's one to three bytes
/// instead of passing through a buffer of its own).
template <typename EncodeFn>
void put_framed_column(BufWriter& w, EncodeFn&& encode_fn) {
  const std::size_t at = w.size();
  encode_fn(w);
  w.insert_varint(at, w.size() - at);
}

void put_int_column(BufWriter& w, const std::vector<std::int64_t>& v) {
  if (v.empty()) return;
  put_framed_column(
      w, [&](BufWriter& c) { colcodec::encode_int_column(c, v.data(), v.size()); });
}

void put_double_column(BufWriter& w, const std::vector<double>& v) {
  if (v.empty()) return;
  put_framed_column(w, [&](BufWriter& c) {
    colcodec::encode_double_column(c, v.data(), v.size());
  });
}

// ---- columnar sync records (v3) --------------------------------------
//
// Five framed columns in field order (phase, ref_rank, local_mid,
// offset, error_bound), same framing as the event columns below. All
// columns are omitted when the rank recorded no sync records.

void encode_sync_v3(BufWriter& w, const std::vector<OffsetRecord>& sync) {
  const std::size_t n = sync.size();
  if (n == 0) return;
  std::vector<std::int64_t> phase(n), ref_rank(n);
  std::vector<double> local_mid(n), offset(n), error_bound(n);
  for (std::size_t i = 0; i < n; ++i) {
    phase[i] = sync[i].phase;
    ref_rank[i] = sync[i].ref_rank;
    local_mid[i] = sync[i].local_mid;
    offset[i] = sync[i].offset;
    error_bound[i] = sync[i].error_bound;
  }
  put_int_column(w, phase);
  put_int_column(w, ref_rank);
  put_double_column(w, local_mid);
  put_double_column(w, offset);
  put_double_column(w, error_bound);
}

void encode_events_v3(BufWriter& w, const EventVector& events,
                      const std::array<std::uint64_t, kNumEventTypes>& counts) {
  EventColumns c;
  const auto count = [&](EventType t) {
    return static_cast<std::size_t>(counts[static_cast<std::size_t>(t)]);
  };
  c.time.reserve(events.size());
  c.enter_region.reserve(count(EventType::Enter));
  for (auto* col : {&c.send_peer, &c.send_tag, &c.send_comm})
    col->reserve(count(EventType::Send));
  c.send_bytes.reserve(count(EventType::Send));
  for (auto* col : {&c.recv_peer, &c.recv_tag, &c.recv_comm})
    col->reserve(count(EventType::Recv));
  c.recv_bytes.reserve(count(EventType::Recv));
  for (auto* col : {&c.coll_region, &c.coll_comm, &c.coll_root})
    col->reserve(count(EventType::CollExit));
  for (auto* col : {&c.coll_bytes, &c.coll_sent, &c.coll_recvd})
    col->reserve(count(EventType::CollExit));
  for (const auto& e : events) {
    c.time.push_back(e.time);
    switch (e.type) {
      case EventType::Enter:
        c.enter_region.push_back(e.region.get());
        break;
      case EventType::Exit:
        break;
      case EventType::Send:
        c.send_peer.push_back(e.peer);
        c.send_tag.push_back(e.tag);
        c.send_bytes.push_back(e.bytes);
        c.send_comm.push_back(e.comm.get());
        break;
      case EventType::Recv:
        c.recv_peer.push_back(e.peer);
        c.recv_tag.push_back(e.tag);
        c.recv_bytes.push_back(e.bytes);
        c.recv_comm.push_back(e.comm.get());
        break;
      case EventType::CollExit:
        c.coll_region.push_back(e.region.get());
        c.coll_comm.push_back(e.comm.get());
        c.coll_root.push_back(e.root);
        c.coll_bytes.push_back(e.bytes);
        c.coll_sent.push_back(e.sent_bytes);
        c.coll_recvd.push_back(e.recvd_bytes);
        break;
    }
  }

  // Nibble-packed type stream, low nibble first.
  for (std::size_t i = 0; i < events.size(); i += 2) {
    std::uint8_t b = static_cast<std::uint8_t>(events[i].type);
    if (i + 1 < events.size())
      b |= static_cast<std::uint8_t>(
          static_cast<std::uint8_t>(events[i + 1].type) << 4);
    w.put_u8(b);
  }

  put_double_column(w, c.time);
  put_int_column(w, c.enter_region);
  put_int_column(w, c.send_peer);
  put_int_column(w, c.send_tag);
  put_double_column(w, c.send_bytes);
  put_int_column(w, c.send_comm);
  put_int_column(w, c.recv_peer);
  put_int_column(w, c.recv_tag);
  put_double_column(w, c.recv_bytes);
  put_int_column(w, c.recv_comm);
  put_int_column(w, c.coll_region);
  put_int_column(w, c.coll_comm);
  put_int_column(w, c.coll_root);
  put_double_column(w, c.coll_bytes);
  put_double_column(w, c.coll_sent);
  put_double_column(w, c.coll_recvd);
}

}  // namespace

void v3::check_int32(const std::int64_t* v, std::size_t n, const char* what,
                     const ErrorContext& ctx) {
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] != static_cast<std::int32_t>(v[i]))
      throw Error(ErrorCode::Corrupt,
                  std::string("corrupt trace: ") + what + " value " +
                      std::to_string(v[i]) + " does not fit in 32 bits",
                  ctx);
}

std::vector<std::uint8_t> encode_defs(const TraceCollection& tc) {
  BufWriter w;
  w.put_u32(kDefsMagic);
  w.put_u32(kTraceFormatVersion);
  w.put_u8(static_cast<std::uint8_t>(tc.scheme));
  w.put_u8(tc.synchronized ? 1 : 0);
  w.put_varint(static_cast<std::uint64_t>(tc.num_ranks()));

  const auto& d = tc.defs;
  w.put_varint(d.regions.size());
  for (const auto& name : d.regions.all()) w.put_string(name);

  w.put_varint(d.metahosts.size());
  for (const auto& mh : d.metahosts) {
    w.put_svarint(mh.id.get());
    w.put_string(mh.name);
  }

  w.put_varint(d.locations.size());
  for (const auto& loc : d.locations) {
    w.put_svarint(loc.machine.get());
    w.put_svarint(loc.node.get());
    w.put_svarint(loc.process);
    w.put_svarint(loc.thread);
  }

  w.put_varint(d.comms.size());
  for (const auto& c : d.comms) {
    w.put_svarint(c.id.get());
    w.put_string(c.name);
    w.put_varint(c.members.size());
    for (Rank m : c.members) w.put_svarint(m);
  }
  return w.data();
}

TraceCollection decode_defs(const std::uint8_t* data, std::size_t size,
                            const std::string& path) {
  Decoder d(data, size, path);
  d.expect_magic(kDefsMagic, "defs file");
  // The defs layout is shared by every version; only the header's
  // version field differs.
  d.expect_version_in(kMinTraceFormatVersion, kTraceFormatVersion,
                      "defs file");
  TraceCollection tc;
  const std::uint8_t scheme = d.get_u8();
  if (scheme > static_cast<std::uint8_t>(SyncScheme::HierarchicalTwo))
    d.fail(ErrorCode::Corrupt, "unknown sync scheme byte " +
                                   std::to_string(static_cast<int>(scheme)));
  tc.scheme = static_cast<SyncScheme>(scheme);
  tc.synchronized = d.get_u8() != 0;
  // The rank count has no per-rank payload in the defs file, so only the
  // absolute cap applies (min_bytes_per_item = 0).
  const auto nranks = d.get_count("ranks", 0);
  if (nranks > kMaxRanksPerArchive)
    d.fail(ErrorCode::LimitExceeded,
           "rank count " + std::to_string(nranks) + " exceeds the cap of " +
               std::to_string(kMaxRanksPerArchive));
  tc.ranks.resize(static_cast<std::size_t>(nranks));
  for (std::size_t i = 0; i < nranks; ++i)
    tc.ranks[i].rank = static_cast<Rank>(i);

  const auto nregions = d.get_count("regions", kMinRegionBytes);
  for (std::uint64_t i = 0; i < nregions; ++i)
    tc.defs.regions.intern(d.get_string("region name"));

  const auto nmh = d.get_count("metahosts", kMinMetahostBytes);
  for (std::uint64_t i = 0; i < nmh; ++i) {
    MetahostDef mh;
    mh.id = MetahostId{static_cast<int>(d.get_svarint())};
    mh.name = d.get_string("metahost name");
    tc.defs.metahosts.push_back(std::move(mh));
  }

  const auto nloc = d.get_count("locations", kMinLocationBytes);
  if (nloc != 0 && nloc != nranks)
    d.fail(ErrorCode::Corrupt,
           "location table size " + std::to_string(nloc) +
               " does not match the rank count " + std::to_string(nranks));
  for (std::uint64_t i = 0; i < nloc; ++i) {
    LocationDef loc;
    loc.machine = MetahostId{static_cast<int>(d.get_svarint())};
    loc.node = NodeId{static_cast<int>(d.get_svarint())};
    loc.process = static_cast<Rank>(d.get_svarint());
    loc.thread = static_cast<int>(d.get_svarint());
    tc.defs.locations.push_back(loc);
  }

  const auto ncomm = d.get_count("communicators", kMinCommBytes);
  for (std::uint64_t i = 0; i < ncomm; ++i) {
    CommDef c;
    c.id = CommId{static_cast<int>(d.get_svarint())};
    c.name = d.get_string("communicator name");
    const auto nmem = d.get_count("communicator members", 1);
    c.members.reserve(static_cast<std::size_t>(nmem));
    for (std::uint64_t k = 0; k < nmem; ++k)
      c.members.push_back(static_cast<Rank>(d.get_svarint()));
    tc.defs.comms.push_back(std::move(c));
  }
  d.require_end("defs file");
  return tc;
}

TraceCollection decode_defs(const std::vector<std::uint8_t>& bytes,
                            const std::string& path) {
  return decode_defs(bytes.data(), bytes.size(), path);
}

std::vector<std::uint8_t> encode_local_trace(const LocalTrace& trace) {
  BufWriter w;
  encode_local_trace(trace, w);
  return w.take();
}

void encode_local_trace(const LocalTrace& trace, BufWriter& w) {
  w.put_u32(kTraceMagic);
  w.put_u32(kTraceFormatVersion);
  w.put_svarint(trace.rank);

  // Both counts precede their payloads so the decoder can reserve once
  // and detect truncation before parsing; the per-type counts let it
  // size every column before touching the payload.
  w.put_varint(trace.sync.size());
  w.put_varint(trace.events.size());
  std::array<std::uint64_t, kNumEventTypes> counts{};
  for (const auto& e : trace.events)
    ++counts[static_cast<std::size_t>(e.type)];
  for (const std::uint64_t c : counts) w.put_varint(c);

  encode_sync_v3(w, trace.sync);
  encode_events_v3(w, trace.events, counts);
}

LocalTrace decode_local_trace(const std::uint8_t* data, std::size_t size,
                              const std::string& path) {
  Decoder d(data, size, path);
  d.expect_magic(kTraceMagic, "trace file");
  const std::uint32_t version = d.expect_version_in(
      kMinTraceFormatVersion, kTraceFormatVersion, "trace file");
  LocalTrace t;
  if (version == 3) {
    // One window spanning the whole file.
    TraceStream s(data, size, path);
    t.rank = s.rank();
    t.sync = s.sync();
    s.next(t.events, s.remaining());
    return t;
  }
  std::uint64_t nev = 0;
  // A file cut short can run dry anywhere — in the header, in the count
  // fields, or mid-record. Every such underflow surfaces here as a
  // Truncated Error; re-throw it under the canonical "truncated trace
  // file" diagnosis with the progress made, keeping the byte offset the
  // decoder recorded. Corrupt/LimitExceeded pass through untouched.
  try {
    const std::int64_t rank = d.get_svarint();
    if (rank < -1 || rank > static_cast<std::int64_t>(kMaxRanksPerArchive))
      d.fail(ErrorCode::Corrupt,
             "implausible rank id " + std::to_string(rank));
    t.rank = static_cast<Rank>(rank);
    d.set_rank(static_cast<int>(rank));

    // v1: each section's count immediately precedes it; v2: both counts
    // first.
    const auto nsync = d.get_count("sync records", kMinSyncRecordBytes);
    if (version == 1) decode_sync_rows(d, t, nsync);
    nev = d.get_count("events", kMinEventBytes);
    if (version == 2) decode_sync_rows(d, t, nsync);
    decode_event_rows(d, t, nev);
    d.require_end("trace file");
  } catch (const Error& e) {
    if (e.code() != ErrorCode::Truncated) throw;
    throw Error(ErrorCode::Truncated,
                "truncated trace file for rank " + std::to_string(t.rank) +
                    ": payload ends after " + std::to_string(t.events.size()) +
                    " of " + std::to_string(nev) + " events (" +
                    e.base_message() + ")",
                e.context());
  }
  return t;
}

LocalTrace decode_local_trace(const std::vector<std::uint8_t>& bytes,
                              const std::string& path) {
  return decode_local_trace(bytes.data(), bytes.size(), path);
}

std::vector<std::uint8_t> encode_container_index(
    const std::vector<ContainerExtent>& entries) {
  BufWriter w;
  std::uint64_t blob_bytes = 0;
  w.put_varint(entries.size());
  for (const ContainerExtent& e : entries) {
    w.put_varint(static_cast<std::uint64_t>(e.rank));
    w.put_varint(e.length);
    blob_bytes += e.length;
  }
  w.put_u64(blob_bytes);
  w.put_u32(kContainerMagic);
  w.put_u32(kContainerVersion);
  return w.data();
}

std::uint64_t decode_container_trailer(const std::uint8_t* tail,
                                       std::size_t tail_size,
                                       std::uint64_t size,
                                       const std::string& path) {
  const std::uint64_t at = size - tail_size;
  try {
    Decoder d(tail, tail_size, path);
    if (size < kContainerTrailerBytes)
      d.fail(ErrorCode::Truncated,
             "trace container of " + std::to_string(size) +
                 " bytes ends before its " +
                 std::to_string(kContainerTrailerBytes) + "-byte trailer");
    const std::uint64_t index_offset = d.get_u64();
    d.expect_magic(kContainerMagic, "trace container");
    d.expect_version(kContainerVersion, "trace container");
    // The offset field sits at the trailer's first byte.
    if (index_offset > size - kContainerTrailerBytes)
      throw Error(ErrorCode::Truncated,
                  "trace container index offset " +
                      std::to_string(index_offset) +
                      " lies past its trailer at " +
                      std::to_string(size - kContainerTrailerBytes),
                  ErrorContext{path, -1, 0});
    return index_offset;
  } catch (const Error& e) {
    throw e.offset_by(at);
  }
}

std::vector<ContainerExtent> decode_container_index(
    const std::uint8_t* index, std::size_t index_size,
    std::uint64_t index_offset, const std::vector<Rank>& holds,
    const std::string& path) {
  std::vector<ContainerExtent> out;
  try {
    Decoder d(index, index_size, path);
    // Validated before the reserve: the count is capped absolutely and
    // by the two bytes (rank, length) each entry takes at least.
    const std::uint64_t n = d.get_varint();
    if (n > kMaxRanksPerArchive)
      d.fail(ErrorCode::LimitExceeded,
             "container index count " + std::to_string(n) +
                 " exceeds the cap of " + std::to_string(kMaxRanksPerArchive));
    if (n > d.remaining() / 2)
      d.fail(ErrorCode::Truncated,
             "truncated: container index promises " + std::to_string(n) +
                 " entries but only " + std::to_string(d.remaining()) +
                 " index bytes are present");
    out.reserve(static_cast<std::size_t>(n));
    std::uint64_t offset = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t rank = d.get_varint();
      if (!out.empty() && rank <= static_cast<std::uint64_t>(out.back().rank))
        d.fail(ErrorCode::Corrupt,
               "container index ranks not strictly ascending (rank " +
                   std::to_string(rank) + " after rank " +
                   std::to_string(out.back().rank) + ")");
      if (rank > kMaxRanksPerArchive ||
          !std::binary_search(holds.begin(), holds.end(),
                              static_cast<Rank>(rank)))
        d.fail(ErrorCode::Corrupt, "container index names rank " +
                                       std::to_string(rank) +
                                       ", which this archive does not hold");
      const std::uint64_t length = d.get_varint();
      if (length > index_offset - offset)
        d.fail(ErrorCode::Corrupt,
               "container blob lengths overrun the " +
                   std::to_string(index_offset) + "-byte blob region");
      out.push_back(ContainerExtent{static_cast<Rank>(rank), offset, length});
      offset += length;
    }
    d.require_end("container index");
    if (offset != index_offset)
      d.fail(ErrorCode::Corrupt,
             "container blob lengths sum to " + std::to_string(offset) +
                 " bytes, short of the " + std::to_string(index_offset) +
                 "-byte blob region");
  } catch (const Error& e) {
    throw e.offset_by(index_offset);
  }
  return out;
}

std::vector<ContainerExtent> decode_container(const std::uint8_t* data,
                                              std::size_t size,
                                              const std::vector<Rank>& holds,
                                              const std::string& path) {
  const std::size_t tail = std::min(size, kContainerTrailerBytes);
  const std::uint64_t index_offset =
      decode_container_trailer(data + (size - tail), tail, size, path);
  const std::size_t index_end = size - kContainerTrailerBytes;
  return decode_container_index(
      data + index_offset, index_end - static_cast<std::size_t>(index_offset),
      index_offset, holds, path);
}

std::string defs_filename() { return "experiment.defs"; }

std::string container_filename() { return "traces.elg"; }

std::string trace_filename(Rank rank) {
  return "trace." + std::to_string(rank) + ".elg";
}

void write_collection(const std::string& dir, const TraceCollection& tc) {
  write_file_bytes(dir + "/" + defs_filename(), encode_defs(tc));
  for (const auto& t : tc.ranks)
    write_file_bytes(dir + "/" + trace_filename(t.rank),
                     encode_local_trace(t));
}

TraceCollection read_collection(const std::string& dir) {
  const std::string defs_path = dir + "/" + defs_filename();
  const MappedFile defs = MappedFile::open(defs_path);
  TraceCollection tc = decode_defs(defs.data(), defs.size(), defs_path);
  for (int r = 0; r < tc.num_ranks(); ++r) {
    const std::string path = dir + "/" + trace_filename(r);
    const MappedFile f = MappedFile::open(path);
    tc.ranks[static_cast<std::size_t>(r)] =
        decode_local_trace(f.data(), f.size(), path);
    if (tc.ranks[static_cast<std::size_t>(r)].rank != r)
      throw Error(ErrorCode::Corrupt,
                  "trace file rank mismatch (file claims rank " +
                      std::to_string(tc.ranks[static_cast<std::size_t>(r)]
                                         .rank) +
                      ")",
                  ErrorContext{path, r, -1});
  }
  return tc;
}

}  // namespace metascope::tracing
