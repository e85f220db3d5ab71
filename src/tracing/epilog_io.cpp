#include "tracing/epilog_io.hpp"

#include <array>

#include "common/binary_io.hpp"
#include "common/column_codec.hpp"
#include "common/error.hpp"
#include "tracing/v3_blocks.hpp"

namespace metascope::tracing {

namespace {
constexpr std::uint32_t kDefsMagic = 0x4453434DU;   // "MCSD"
using v3::kNumEventTypes;
using v3::kTraceMagic;

// Cheapest possible encodings, used to validate header counts against
// the bytes actually present before reserving anything: a row-wise
// (v1/v2) sync record is >= 26 bytes (u8 + 1-byte svarint + 3 f64) and
// a columnar (v3) one contributes at least one byte to the phase
// column; a row-wise (v1/v2) event is >= 9 (u8 type + f64 time) and a
// columnar (v3) one at least one byte to the time column; defs-table
// entries bottom out at their field prefixes.
constexpr std::size_t kMinSyncRecordBytes = 26;
constexpr std::size_t kMinSyncRecordBytesV3 = 1;
constexpr std::size_t kMinEventBytes = 9;
constexpr std::size_t kMinEventBytesV3 = 1;
constexpr std::size_t kMinRegionBytes = 1;    // string length prefix
constexpr std::size_t kMinMetahostBytes = 2;  // id + name prefix
constexpr std::size_t kMinLocationBytes = 4;  // four svarints
constexpr std::size_t kMinCommBytes = 3;      // id + name prefix + count

/// One id field of a row-wise (v1/v2) record, named like its v3 column.
std::int32_t get_id(Decoder& d, const char* what) {
  const std::int64_t v = d.get_svarint();
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
// Layout after the sync columns (see DESIGN.md §5e):
//   - nibble-packed type stream: ceil(nevents/2) bytes, low nibble =
//     even-index event, high nibble = odd-index event; a trailing unused
//     high nibble must be zero;
//   - framed columns in fixed order, each a varint byte-length followed
//     by that many payload bytes. A column whose row count is zero is
//     omitted entirely (the counts in the header make this unambiguous).
// Column order: time (all events, stream order); Enter.region;
// Send.peer/tag/bytes/comm; Recv.peer/tag/bytes/comm;
// CollExit.region/comm/root/bytes/sent/recvd.

/// Per-type field vectors gathered from (encode) or destined for
/// (decode) the interleaved event stream.
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

template <typename EncodeFn>
void put_framed_column(BufWriter& w, EncodeFn&& encode_fn) {
  BufWriter col;
  encode_fn(col);
  w.put_varint(col.size());
  if (col.size() != 0) w.put_bytes(col.data().data(), col.size());
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

/// Corrupt if the codec consumed a different number of bytes than the
/// frame declared (a column-length/count mismatch).
void end_column(const Decoder& d, const char* what, std::size_t end) {
  if (d.pos() != end)
    d.fail(ErrorCode::Corrupt,
           std::string("column length mismatch for ") + what +
               " column: codec consumed through byte " +
               std::to_string(d.pos()) + " but the frame ends at byte " +
               std::to_string(end));
}

void get_int_column(Decoder& d, std::vector<std::int64_t>& out,
                    std::size_t n, const char* what) {
  out.resize(n);
  if (n == 0) return;
  const std::size_t end = v3::begin_column(d, what);
  colcodec::decode_int_column(d, out.data(), n);
  end_column(d, what, end);
  v3::check_int32(out.data(), n, what, d.context());
}

void get_double_column(Decoder& d, std::vector<double>& out, std::size_t n,
                       const char* what) {
  out.resize(n);
  if (n == 0) return;
  const std::size_t end = v3::begin_column(d, what);
  colcodec::decode_double_column(d, out.data(), n);
  end_column(d, what, end);
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
  c.time.reserve(events.size());
  c.enter_region.reserve(static_cast<std::size_t>(counts[0]));
  c.send_peer.reserve(static_cast<std::size_t>(counts[2]));
  c.recv_peer.reserve(static_cast<std::size_t>(counts[3]));
  c.coll_region.reserve(static_cast<std::size_t>(counts[4]));
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

void decode_events_v3(Decoder& d, LocalTrace& t, const v3::Header& h) {
  const std::uint64_t nev = h.nev;
  const auto& counts = h.counts;
  const std::uint8_t* nibbles = v3::get_type_stream(d, h);

  EventColumns c;
  get_double_column(d, c.time, static_cast<std::size_t>(nev), "time");
  const auto n_enter = static_cast<std::size_t>(counts[0]);
  const auto n_send = static_cast<std::size_t>(counts[2]);
  const auto n_recv = static_cast<std::size_t>(counts[3]);
  const auto n_coll = static_cast<std::size_t>(counts[4]);
  get_int_column(d, c.enter_region, n_enter, "enter.region");
  get_int_column(d, c.send_peer, n_send, "send.peer");
  get_int_column(d, c.send_tag, n_send, "send.tag");
  get_double_column(d, c.send_bytes, n_send, "send.bytes");
  get_int_column(d, c.send_comm, n_send, "send.comm");
  get_int_column(d, c.recv_peer, n_recv, "recv.peer");
  get_int_column(d, c.recv_tag, n_recv, "recv.tag");
  get_double_column(d, c.recv_bytes, n_recv, "recv.bytes");
  get_int_column(d, c.recv_comm, n_recv, "recv.comm");
  get_int_column(d, c.coll_region, n_coll, "collexit.region");
  get_int_column(d, c.coll_comm, n_coll, "collexit.comm");
  get_int_column(d, c.coll_root, n_coll, "collexit.root");
  get_double_column(d, c.coll_bytes, n_coll, "collexit.bytes");
  get_double_column(d, c.coll_sent, n_coll, "collexit.sent");
  get_double_column(d, c.coll_recvd, n_coll, "collexit.recvd");

  // Interleave the columns back into the event stream. The type-stream
  // tallies were checked against the header counts above, so every
  // cursor lands exactly at its column's end; get_int_column checked
  // every id against int32, so the narrowing casts are exact.
  t.events.resize(static_cast<std::size_t>(nev));
  std::size_t i_enter = 0, i_send = 0, i_recv = 0, i_coll = 0;
  for (std::uint64_t i = 0; i < nev; ++i) {
    Event& e = t.events[static_cast<std::size_t>(i)];
    e.type = v3::type_at(nibbles, static_cast<std::size_t>(i));
    e.time = c.time[static_cast<std::size_t>(i)];
    switch (e.type) {
      case EventType::Enter:
        e.region = RegionId{static_cast<int>(c.enter_region[i_enter++])};
        break;
      case EventType::Exit:
        break;
      case EventType::Send:
        e.peer = static_cast<Rank>(c.send_peer[i_send]);
        e.tag = static_cast<int>(c.send_tag[i_send]);
        e.bytes = c.send_bytes[i_send];
        e.comm = CommId{static_cast<int>(c.send_comm[i_send])};
        ++i_send;
        break;
      case EventType::Recv:
        e.peer = static_cast<Rank>(c.recv_peer[i_recv]);
        e.tag = static_cast<int>(c.recv_tag[i_recv]);
        e.bytes = c.recv_bytes[i_recv];
        e.comm = CommId{static_cast<int>(c.recv_comm[i_recv])};
        ++i_recv;
        break;
      case EventType::CollExit:
        e.region = RegionId{static_cast<int>(c.coll_region[i_coll])};
        e.comm = CommId{static_cast<int>(c.coll_comm[i_coll])};
        e.root = static_cast<Rank>(c.coll_root[i_coll]);
        e.bytes = c.coll_bytes[i_coll];
        e.sent_bytes = c.coll_sent[i_coll];
        e.recvd_bytes = c.coll_recvd[i_coll];
        ++i_coll;
        break;
    }
  }
}

}  // namespace

std::size_t v3::begin_column(Decoder& d, const char* what) {
  const std::uint64_t len = d.get_varint();
  if (len > d.remaining())
    d.fail(ErrorCode::Truncated,
           std::string("truncated ") + what + " column: frame declares " +
               std::to_string(len) + " bytes but only " +
               std::to_string(d.remaining()) + " remain");
  return d.pos() + static_cast<std::size_t>(len);
}

void v3::check_int32(const std::int64_t* v, std::size_t n, const char* what,
                     const ErrorContext& ctx) {
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] != static_cast<std::int32_t>(v[i]))
      throw Error(ErrorCode::Corrupt,
                  std::string("corrupt trace: ") + what + " value " +
                      std::to_string(v[i]) + " does not fit in 32 bits",
                  ctx);
}

v3::Header v3::get_header(Decoder& d) {
  Header h;
  h.nsync = d.get_count("sync records", kMinSyncRecordBytesV3);
  h.nev = d.get_count("events", kMinEventBytesV3);
  std::uint64_t sum = 0;
  for (std::uint64_t& c : h.counts) {
    c = d.get_varint();
    sum += c;
  }
  if (sum != h.nev)
    d.fail(ErrorCode::Corrupt,
           "per-type event counts sum to " + std::to_string(sum) +
               " but the header declares " + std::to_string(h.nev) +
               " events");
  return h;
}

std::vector<OffsetRecord> v3::get_sync(Decoder& d, std::uint64_t nsync) {
  const auto n = static_cast<std::size_t>(nsync);
  std::vector<std::int64_t> phase, ref_rank;
  std::vector<double> local_mid, offset, error_bound;
  get_int_column(d, phase, n, "sync.phase");
  get_int_column(d, ref_rank, n, "sync.ref_rank");
  get_double_column(d, local_mid, n, "sync.local_mid");
  get_double_column(d, offset, n, "sync.offset");
  get_double_column(d, error_bound, n, "sync.error_bound");
  std::vector<OffsetRecord> sync(n);
  for (std::size_t i = 0; i < n; ++i) {
    OffsetRecord& s = sync[i];
    s.phase = static_cast<int>(phase[i]);
    s.ref_rank = static_cast<Rank>(ref_rank[i]);
    s.local_mid = local_mid[i];
    s.offset = offset[i];
    s.error_bound = error_bound[i];
  }
  return sync;
}

// Every nibble must name a known event type, the per-type tallies must
// reproduce the header's counts, and an odd stream's trailing high
// nibble must be zero.
const std::uint8_t* v3::get_type_stream(Decoder& d, const Header& h) {
  const auto nbytes = static_cast<std::size_t>((h.nev + 1) / 2);
  const std::uint8_t* nibbles = d.get_raw(nbytes, "event type stream");
  std::array<std::uint64_t, kNumEventTypes> seen{};
  for (std::uint64_t i = 0; i < h.nev; ++i) {
    const auto ty =
        static_cast<std::size_t>(type_at(nibbles, static_cast<std::size_t>(i)));
    if (ty >= kNumEventTypes)
      d.fail(ErrorCode::Corrupt, "corrupt trace: unknown event type " +
                                     std::to_string(ty) +
                                     " in type stream at event " +
                                     std::to_string(i));
    ++seen[ty];
  }
  if (h.nev % 2 != 0 && (nibbles[nbytes - 1] >> 4) != 0)
    d.fail(ErrorCode::Corrupt,
           "corrupt trace: nonzero padding nibble in type stream");
  for (std::size_t ty = 0; ty < kNumEventTypes; ++ty)
    if (seen[ty] != h.counts[ty])
      d.fail(ErrorCode::Corrupt,
             "corrupt trace: type stream has " + std::to_string(seen[ty]) +
                 " events of type " + std::to_string(ty) +
                 " but the header declares " + std::to_string(h.counts[ty]));
  return nibbles;
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
  Decoder d(data, size, ErrorContext{path, -1, -1});
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
  return w.data();
}

LocalTrace decode_local_trace(const std::uint8_t* data, std::size_t size,
                              const std::string& path) {
  Decoder d(data, size, ErrorContext{path, -1, -1});
  d.expect_magic(kTraceMagic, "trace file");
  const std::uint32_t version = d.expect_version_in(
      kMinTraceFormatVersion, kTraceFormatVersion, "trace file");
  LocalTrace t;
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

    if (version == 3) {
      const v3::Header h = v3::get_header(d);
      nev = h.nev;
      t.sync = v3::get_sync(d, h.nsync);
      decode_events_v3(d, t, h);
    } else {
      // v1: each section's count immediately precedes it; v2: both
      // counts first.
      const auto nsync = d.get_count("sync records", kMinSyncRecordBytes);
      if (version == 1) decode_sync_rows(d, t, nsync);
      nev = d.get_count("events", kMinEventBytes);
      if (version == 2) decode_sync_rows(d, t, nsync);
      decode_event_rows(d, t, nev);
    }
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

std::string defs_filename() { return "experiment.defs"; }

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
