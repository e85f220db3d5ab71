#include "simmpi/engine.hpp"

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "simmpi/collectives.hpp"
#include "simnet/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/span.hpp"

namespace metascope::simmpi {

namespace {

/// A lookup table that grows with ops or messages. Its large blocks are
/// mapped from the OS and unmapped when the engine finishes, so a run
/// leaves no freed tables in the heap (nor a raised mmap threshold).
template <typename T>
using Table = std::vector<T, PageAllocator<T>>;

// ---------------------------------------------------------------------
// Every point-to-point message has a send half and a receive half, each
// owned by one (rank, op); SendRecv ops own one of each. Message m keeps
// its send half at halves_[2m] and its receive half at halves_[2m + 1],
// so the partner of half h is h ^ 1.
// ---------------------------------------------------------------------

struct HalfState {
  bool posted{false};
  bool timed{false};
  bool rendezvous{false};
  TrueTime post_time;
  double bytes{0.0};
  // Outputs (valid once timed). All stored on the *send* half; the recv
  // half holds only posted/post_time. The channel ends are the owning
  // ops' ranks and peers, so no half stores them.
  TrueTime send_event;
  TrueTime send_done;
  TrueTime arrival;
};

/// One half as a sortable key: its channel (source, destination, tag,
/// communicator), then the flat index of the op that owns it.
struct HalfKey {
  std::array<int, 4> channel;
  std::uint32_t op;
  auto operator<=>(const HalfKey&) const = default;
};

struct CollInstance {
  std::vector<TrueTime> enter;
  std::vector<bool> present;
  int arrived{0};
  bool timed{false};
  CollTiming timing;
  OpKind kind{OpKind::Barrier};
  Rank root{kNoRank};
  double bytes{0.0};
};

struct RequestState {
  std::uint32_t half{0};
  bool is_recv{false};
  double bytes{0.0};
  Rank peer{kNoRank};
  int tag{0};
  CommId comm{0};
};

class EngineImpl {
 public:
  EngineImpl(const simnet::Topology& topo, const Program& prog,
             const EngineConfig& cfg)
      : topo_(topo),
        prog_(prog),
        cfg_(cfg),
        net_(topo, Rng(cfg.seed)),
        mpi_region_(static_cast<std::size_t>(17)) {
    MSC_CHECK(topo_.num_ranks() == prog_.num_ranks(),
              "topology rank count differs from program rank count");
    const auto n = static_cast<std::size_t>(prog_.num_ranks());
    now_.assign(n, TrueTime{0.0});
    ip_.assign(n, 0);
    posted_current_.assign(n, false);
    events_.assign(n, {});
    requests_.assign(n, {});
    build_mpi_regions();
    lay_out_tables();
  }

  ExecResult run() {
    const std::size_t total_ops = op_base_.back();
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.sweeps;
      for (Rank r = 0; r < prog_.num_ranks(); ++r)
        progress = advance(r) || progress;
      if (telemetry::progress_enabled() && total_ops > 0) {
        std::size_t executed = 0;
        for (const std::size_t i : ip_) executed += i;
        telemetry::progress("simulate",
                            static_cast<double>(executed) /
                                static_cast<double>(total_ops));
      }
    }
    for (Rank r = 0; r < prog_.num_ranks(); ++r) {
      if (ip_[static_cast<std::size_t>(r)] <
          prog_.ops[static_cast<std::size_t>(r)].size()) {
        std::ostringstream os;
        const auto& op = prog_.ops[static_cast<std::size_t>(
            r)][ip_[static_cast<std::size_t>(r)]];
        os << "simulated deadlock: rank " << r << " blocked at op "
           << ip_[static_cast<std::size_t>(r)] << " (kind "
           << static_cast<int>(op.kind) << ", peer " << op.peer << ", tag "
           << op.tag << ")";
        throw Error(os.str());
      }
    }
    ExecResult out;
    out.per_rank = std::move(events_);
    out.rank_end.resize(now_.size());
    out.end_time = TrueTime{0.0};
    for (std::size_t r = 0; r < now_.size(); ++r) {
      out.rank_end[r] = now_[r];
      out.end_time = std::max(out.end_time, now_[r]);
    }
    for (const auto& v : out.per_rank) stats_.events += v.size();
    out.stats = stats_;
    return out;
  }

 private:
  // --- setup -----------------------------------------------------------

  void build_mpi_regions() {
    // MPI call regions were pre-interned by the Program constructor.
    for (OpKind k :
         {OpKind::Send, OpKind::Recv, OpKind::Isend, OpKind::Irecv,
          OpKind::Wait, OpKind::SendRecv, OpKind::Barrier, OpKind::Bcast,
          OpKind::Reduce, OpKind::Allreduce, OpKind::Gather,
          OpKind::Allgather, OpKind::Scatter, OpKind::Alltoall})
      mpi_region_[static_cast<std::size_t>(k)] =
          prog_.regions.find(mpi_region_name(k));
  }

  RegionId mpi_region(OpKind k) const {
    return mpi_region_[static_cast<std::size_t>(k)];
  }

  /// Number of events an op emits; a Wait's depends on whether its
  /// request is a receive.
  static std::size_t events_of(const Op& op, bool recv_wait) {
    switch (op.kind) {
      case OpKind::Compute:
        return 0;
      case OpKind::Enter:
      case OpKind::Exit:
        return 1;
      case OpKind::Irecv:
        return 2;
      case OpKind::Send:
      case OpKind::Recv:
      case OpKind::Isend:
        return 3;
      case OpKind::Wait:
        return recv_wait ? 3 : 2;
      case OpKind::SendRecv:
        return 4;
      default:
        return 2;  // a collective: Enter, CollExit
    }
  }

  /// Lays out every table the sweep looks things up in. Per op, at flat
  /// index op_base_[r] + op_idx: the halves it owns, or a collective's
  /// sequence number on its communicator. Per communicator: world ->
  /// local ranks, collective instances and the link profile.
  void lay_out_tables() {
    const std::size_t n = prog_.ops.size();
    const std::size_t ncomms = prog_.comms.size();
    op_base_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r)
      op_base_[r + 1] = op_base_[r] + prog_.ops[r].size();
    const std::size_t nops = op_base_[n];
    MSC_CHECK(nops < std::numeric_limits<std::uint32_t>::max() / 2,
              "program too large for the engine's op tables");
    send_half_.assign(nops, 0);
    recv_half_.assign(nops, 0);
    coll_seq_.assign(nops, 0);

    // An op owns at most one half of each side.
    Table<HalfKey> sends, recvs;
    sends.reserve(nops);
    recvs.reserve(nops);
    std::vector<std::uint32_t> colls_on(ncomms);
    std::vector<bool> recv_request;
    for (Rank r = 0; r < prog_.num_ranks(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const std::size_t first_send = sends.size();
      std::fill(colls_on.begin(), colls_on.end(), 0);
      recv_request.clear();
      std::size_t events = 0;
      for (std::size_t i = 0; i < prog_.ops[ri].size(); ++i) {
        const Op& op = prog_.ops[ri][i];
        const auto flat = static_cast<std::uint32_t>(op_base_[ri] + i);
        switch (op.kind) {
          case OpKind::Send:
          case OpKind::Isend:
            sends.push_back({{r, op.peer, op.tag, op.comm.get()}, flat});
            break;
          case OpKind::Recv:
          case OpKind::Irecv:
            recvs.push_back({{op.peer, r, op.tag, op.comm.get()}, flat});
            break;
          case OpKind::SendRecv:
            sends.push_back({{r, op.peer, op.tag, op.comm.get()}, flat});
            recvs.push_back({{op.recv_peer, r, op.tag, op.comm.get()}, flat});
            break;
          default:
            if (is_collective(op.kind)) {
              (void)prog_.comms.get(op.comm);  // rejects an unknown id
              coll_seq_[flat] =
                  colls_on[static_cast<std::size_t>(op.comm.get())]++;
            }
            break;
        }
        if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv)
          recv_request.push_back(op.kind == OpKind::Irecv);
        const bool recv_wait =
            op.kind == OpKind::Wait && op.request >= 0 &&
            static_cast<std::size_t>(op.request) < recv_request.size() &&
            recv_request[static_cast<std::size_t>(op.request)];
        events += events_of(op, recv_wait);
      }
      events_[ri].reserve(events);
      // Rank r's sends all lead with source r, so sorting them here
      // already puts them in their place in the sorted whole.
      std::sort(sends.begin() + static_cast<std::ptrdiff_t>(first_send),
                sends.end());
    }

    // The m-th send on a channel matches the m-th receive on it (MPI
    // non-overtaking order). Sorted by (channel, op), each channel's
    // halves are in program order, so the two sorted lists zip into
    // messages.
    std::sort(recvs.begin(), recvs.end());
    MSC_ASSERT(sends.size() == recvs.size(),
               "validate() should have rejected unmatched p2p");
    for (std::size_t m = 0; m < sends.size(); ++m) {
      MSC_ASSERT(sends[m].channel == recvs[m].channel,
                 "validate() should have rejected unmatched p2p");
      send_half_[sends[m].op] = static_cast<std::uint32_t>(2 * m);
      recv_half_[recvs[m].op] = static_cast<std::uint32_t>(2 * m + 1);
    }
    halves_.assign(2 * sends.size(), HalfState{});

    local_rank_.resize(ncomms);
    for (std::size_t c = 0; c < ncomms; ++c)
      local_rank_[c] = prog_.comms.local_ranks(CommId{static_cast<int>(c)});
    coll_instances_.resize(ncomms);
    comm_profile_.resize(ncomms);
  }

  // --- helpers ---------------------------------------------------------

  Dur overhead(Rank r) const { return cfg_.cpu_overhead / topo_.speed_of(r); }

  /// Flat index of rank r's op op_idx in the per-op tables.
  std::size_t flat(Rank r, std::uint32_t op_idx) const {
    return op_base_[static_cast<std::size_t>(r)] + op_idx;
  }

  /// Local rank of world rank r in communicator c, or -1.
  int local_rank(CommId c, Rank r) const {
    return local_rank_[static_cast<std::size_t>(c.get())]
                      [static_cast<std::size_t>(r)];
  }

  void post_send_half(std::uint32_t h, Rank r, TrueTime t, Rank dst,
                      double bytes) {
    HalfState& s = halves_[h];
    s.posted = true;
    s.post_time = t;
    s.bytes = bytes;
    s.rendezvous = bytes > cfg_.eager_threshold;
    try_time_send(h, r, dst);
  }

  void post_recv_half(std::uint32_t h, Rank r, TrueTime t, Rank src) {
    HalfState& s = halves_[h];
    s.posted = true;
    s.post_time = t;
    // A rendezvous sender might be blocked on this post.
    try_time_send(h ^ 1, src, r);
  }

  /// Attempts to compute the transfer times for a send half on the
  /// channel src -> dst. Eager sends time immediately; rendezvous sends
  /// require the posted receive.
  void try_time_send(std::uint32_t send_half, Rank src, Rank dst) {
    HalfState& s = halves_[send_half];
    if (!s.posted || s.timed) return;
    const Dur o = overhead(src);
    if (!s.rendezvous) {
      s.send_event = s.post_time + 0.5 * o;
      const auto& link = topo_.link_between(src, dst);
      s.send_done = s.post_time + o + s.bytes / link.bandwidth_bps;
      s.arrival = s.send_event + net_.sample_delay(src, dst, s.bytes);
      s.timed = true;
    } else {
      const HalfState& rhalf = halves_[send_half ^ 1];
      if (!rhalf.posted) return;
      const Dur o_r = overhead(dst);
      const Dur l1 = net_.sample_delay(src, dst, 0.0);
      const Dur l2 = net_.sample_delay(dst, src, 0.0);
      const Dur l3 = net_.sample_delay(src, dst, 0.0);
      const TrueTime rts_at_recv = s.post_time + o + l1;
      const TrueTime cts_at_sender =
          std::max(rts_at_recv, rhalf.post_time + o_r) + l2;
      const auto& link = topo_.link_between(src, dst);
      s.send_event = s.post_time + 0.5 * o;
      s.send_done = cts_at_sender + s.bytes / link.bandwidth_bps;
      s.arrival = s.send_done + l3;
      s.timed = true;
    }
    ++stats_.messages;
    stats_.message_bytes += s.bytes;
  }

  void emit(Rank r, ExecEvent ev) {
    events_[static_cast<std::size_t>(r)].push_back(ev);
  }

  void emit_enter(Rank r, TrueTime t, RegionId region) {
    ExecEvent ev;
    ev.type = ExecEventType::Enter;
    ev.time = t;
    ev.region = region;
    emit(r, ev);
  }

  void emit_exit(Rank r, TrueTime t) {
    ExecEvent ev;
    ev.type = ExecEventType::Exit;
    ev.time = t;
    emit(r, ev);
  }

  void emit_send(Rank r, TrueTime t, Rank dst, int tag, double bytes,
                 CommId comm) {
    ExecEvent ev;
    ev.type = ExecEventType::Send;
    ev.time = t;
    ev.peer = dst;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.comm = comm;
    emit(r, ev);
  }

  void emit_recv(Rank r, TrueTime t, Rank src, int tag, double bytes,
                 CommId comm) {
    ExecEvent ev;
    ev.type = ExecEventType::Recv;
    ev.time = t;
    ev.peer = src;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.comm = comm;
    emit(r, ev);
  }

  // --- the sweep -------------------------------------------------------

  /// Advances rank r as far as possible; true if any op resolved.
  bool advance(Rank r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& ops = prog_.ops[ri];
    bool progressed = false;
    while (ip_[ri] < ops.size()) {
      const auto op_idx = static_cast<std::uint32_t>(ip_[ri]);
      const Op& op = ops[op_idx];
      const std::size_t f = flat(r, op_idx);
      const TrueTime t = now_[ri];
      const Dur o = overhead(r);

      // Post side effects exactly once per op.
      if (!posted_current_[ri]) {
        switch (op.kind) {
          case OpKind::Send:
            post_send_half(send_half_[f], r, t, op.peer, op.bytes);
            break;
          case OpKind::Recv:
            post_recv_half(recv_half_[f], r, t, op.peer);
            break;
          case OpKind::Isend: {
            post_send_half(send_half_[f], r, t, op.peer, op.bytes);
            RequestState req;
            req.half = send_half_[f];
            req.is_recv = false;
            req.bytes = op.bytes;
            req.peer = op.peer;
            req.tag = op.tag;
            req.comm = op.comm;
            requests_[ri].push_back(req);
            break;
          }
          case OpKind::Irecv: {
            post_recv_half(recv_half_[f], r, t, op.peer);
            RequestState req;
            req.half = recv_half_[f];
            req.is_recv = true;
            req.peer = op.peer;
            req.tag = op.tag;
            req.comm = op.comm;
            requests_[ri].push_back(req);
            break;
          }
          case OpKind::SendRecv:
            post_send_half(send_half_[f], r, t, op.peer, op.bytes);
            post_recv_half(recv_half_[f], r, t, op.recv_peer);
            break;
          default:
            if (is_collective(op.kind)) post_collective(r, f, op, t);
            break;
        }
        posted_current_[ri] = true;
      }

      // Try to resolve the op.
      TrueTime done = t;
      bool resolved = false;
      switch (op.kind) {
        case OpKind::Compute: {
          done = t + op.work / topo_.speed_of(r);
          resolved = true;
          break;
        }
        case OpKind::Enter: {
          emit_enter(r, t, op.region);
          resolved = true;
          break;
        }
        case OpKind::Exit: {
          emit_exit(r, t);
          resolved = true;
          break;
        }
        case OpKind::Send: {
          const HalfState& s = halves_[send_half_[f]];
          if (!s.timed) break;
          emit_enter(r, t, mpi_region(OpKind::Send));
          emit_send(r, s.send_event, op.peer, op.tag, op.bytes, op.comm);
          done = s.send_done;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Recv: {
          const HalfState& s = halves_[recv_half_[f] ^ 1];
          if (!s.timed) break;
          done = std::max(t, s.arrival) + o;
          emit_enter(r, t, mpi_region(OpKind::Recv));
          emit_recv(r, done, op.peer, op.tag, s.bytes, op.comm);
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Isend: {
          // The call itself returns immediately; transfer may still be
          // pending (rendezvous) and completes at Wait.
          emit_enter(r, t, mpi_region(OpKind::Isend));
          emit_send(r, t + 0.5 * o, op.peer, op.tag, op.bytes, op.comm);
          done = t + o;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Irecv: {
          emit_enter(r, t, mpi_region(OpKind::Irecv));
          done = t + o;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Wait: {
          const RequestState& req =
              requests_[ri][static_cast<std::size_t>(op.request)];
          if (req.is_recv) {
            const HalfState& s = halves_[req.half ^ 1];
            if (!s.timed) break;
            done = std::max(t, s.arrival) + o;
            emit_enter(r, t, mpi_region(OpKind::Wait));
            emit_recv(r, done, req.peer, req.tag, s.bytes, req.comm);
            emit_exit(r, done);
          } else {
            const HalfState& s = halves_[req.half];
            if (!s.timed) break;
            done = std::max(t, s.send_done) + 0.5 * o;
            emit_enter(r, t, mpi_region(OpKind::Wait));
            emit_exit(r, done);
          }
          resolved = true;
          break;
        }
        case OpKind::SendRecv: {
          const HalfState& s = halves_[send_half_[f]];
          const HalfState& ps = halves_[recv_half_[f] ^ 1];
          if (!s.timed || !ps.timed) break;
          const TrueTime recv_done = std::max(t, ps.arrival) + o;
          done = std::max(s.send_done, recv_done);
          emit_enter(r, t, mpi_region(OpKind::SendRecv));
          emit_send(r, s.send_event, op.peer, op.tag, op.bytes, op.comm);
          emit_recv(r, recv_done, op.recv_peer, op.tag, ps.bytes, op.comm);
          emit_exit(r, done);
          resolved = true;
          break;
        }
        default: {
          MSC_ASSERT(is_collective(op.kind), "unhandled op kind");
          const CollInstance& inst = coll_instance_of(f, op);
          if (!inst.timed) break;
          const int local = local_rank(op.comm, r);
          done = inst.timing.exit[static_cast<std::size_t>(local)];
          emit_enter(r, t, mpi_region(op.kind));
          ExecEvent ev;
          ev.type = ExecEventType::CollExit;
          ev.time = done;
          ev.region = mpi_region(op.kind);
          ev.comm = op.comm;
          ev.root = op.root;
          ev.bytes = op.bytes;
          ev.sent_bytes =
              inst.timing.sent_bytes[static_cast<std::size_t>(local)];
          ev.recvd_bytes =
              inst.timing.recvd_bytes[static_cast<std::size_t>(local)];
          emit(r, ev);
          resolved = true;
          break;
        }
      }

      if (!resolved) break;
      now_[ri] = done;
      ++ip_[ri];
      posted_current_[ri] = false;
      progressed = true;
    }
    return progressed;
  }

  // --- collectives -----------------------------------------------------

  void post_collective(Rank r, std::size_t f, const Op& op, TrueTime t) {
    const std::uint32_t seq = coll_seq_[f];
    const Communicator& comm = prog_.comms.get(op.comm);
    auto& list = coll_instances_[static_cast<std::size_t>(op.comm.get())];
    if (seq >= list.size()) list.resize(seq + 1);
    CollInstance& inst = list[seq];
    if (inst.enter.empty()) {
      inst.enter.assign(static_cast<std::size_t>(comm.size()), TrueTime{});
      inst.present.assign(static_cast<std::size_t>(comm.size()), false);
      inst.kind = op.kind;
      inst.root = op.root;
      inst.bytes = op.bytes;
    }
    MSC_ASSERT(inst.kind == op.kind,
               "collective kind mismatch (validate() hole?)");
    const int local = local_rank(op.comm, r);
    MSC_ASSERT(local >= 0, "collective poster not a member");
    const auto lu = static_cast<std::size_t>(local);
    MSC_ASSERT(!inst.present[lu], "double collective post");
    inst.present[lu] = true;
    inst.enter[lu] = t;
    ++inst.arrived;
    if (inst.arrived == comm.size()) {
      auto& profile = comm_profile_[static_cast<std::size_t>(op.comm.get())];
      if (!profile) profile = profile_comm(topo_, comm);
      inst.timing =
          time_collective(inst.kind, topo_, comm, *profile, inst.enter,
                          inst.root, inst.bytes, cfg_.cpu_overhead);
      inst.timed = true;
      ++stats_.collectives;
    }
  }

  const CollInstance& coll_instance_of(std::size_t f, const Op& op) const {
    const auto& list = coll_instances_[static_cast<std::size_t>(op.comm.get())];
    MSC_ASSERT(coll_seq_[f] < list.size(), "collective op not posted");
    return list[coll_seq_[f]];
  }

  // --- state -----------------------------------------------------------

  const simnet::Topology& topo_;
  const Program& prog_;
  EngineConfig cfg_;
  simnet::Network net_;

  std::vector<TrueTime> now_;
  std::vector<std::size_t> ip_;
  std::vector<bool> posted_current_;
  std::vector<std::vector<ExecEvent>> events_;
  std::vector<std::vector<RequestState>> requests_;

  // Rank r's ops start at op_base_[r]; the per-op tables below are
  // indexed by flat(r, op_idx).
  std::vector<std::size_t> op_base_;
  Table<std::uint32_t> send_half_;
  Table<std::uint32_t> recv_half_;
  Table<std::uint32_t> coll_seq_;
  // Two per message: send half at 2m, receive half at 2m + 1.
  Table<HalfState> halves_;
  // Per communicator, indexed by id.
  std::vector<std::vector<int>> local_rank_;
  std::vector<std::vector<CollInstance>> coll_instances_;
  std::vector<std::optional<CommLinkProfile>> comm_profile_;
  std::vector<RegionId> mpi_region_;

  EngineStats stats_;
};

}  // namespace

ExecResult execute(const simnet::Topology& topo, const Program& prog,
                   const EngineConfig& cfg) {
  telemetry::ScopedSpan span("simulate");
  EngineImpl impl(topo, prog, cfg);
  ExecResult out = impl.run();
  // The engine is single-threaded, so its aggregate counters transfer to
  // the registry in one shot instead of per-event increments.
  telemetry::counter("sim.events").add(out.stats.events);
  telemetry::counter("sim.messages").add(out.stats.messages);
  telemetry::counter("sim.collectives").add(out.stats.collectives);
  telemetry::counter("sim.sweeps").add(out.stats.sweeps);
  telemetry::gauge("sim.time_s").set(out.end_time.s);
  if (telemetry::progress_enabled()) telemetry::progress("simulate", 1.0);
  return out;
}

}  // namespace metascope::simmpi
