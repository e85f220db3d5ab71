#include "simmpi/program.hpp"

#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace metascope::simmpi {

std::size_t Program::total_ops() const {
  std::size_t n = 0;
  for (const auto& v : ops) n += v.size();
  return n;
}

void Program::validate() const {
  const int n = num_ranks();
  // Per-communicator collective call sequences must be identical across
  // members; p2p sends/recvs must pair up per (src, dst, tag, comm).
  std::map<std::pair<int, int>, std::vector<OpKind>> coll_seq;  // (comm,rank)
  std::map<std::tuple<int, int, int, int>, long> p2p_balance;
  // Per communicator: world rank -> local rank, -1 for non-members.
  std::vector<std::vector<int>> local(comms.size());
  for (std::size_t c = 0; c < comms.size(); ++c)
    local[c] = comms.local_ranks(CommId{static_cast<int>(c)});

  for (Rank r = 0; r < n; ++r) {
    int depth = 0;
    int requests = 0;
    std::vector<bool> waited;
    const std::string where = "rank " + std::to_string(r);
    for (const auto& op : ops[static_cast<std::size_t>(r)]) {
      switch (op.kind) {
        case OpKind::Enter:
          MSC_CHECK(op.region.valid(), where + ": Enter without region");
          ++depth;
          break;
        case OpKind::Exit:
          MSC_CHECK(depth > 0, where + ": Exit without Enter");
          --depth;
          break;
        case OpKind::Compute:
          MSC_CHECK(op.work >= 0.0, where + ": negative work");
          break;
        case OpKind::Send:
        case OpKind::Isend:
          MSC_CHECK(op.peer >= 0 && op.peer < n && op.peer != r,
                    where + ": bad send peer");
          p2p_balance[{r, op.peer, op.tag, op.comm.get()}] += 1;
          break;
        case OpKind::Recv:
        case OpKind::Irecv:
          MSC_CHECK(op.peer >= 0 && op.peer < n && op.peer != r,
                    where + ": bad recv peer");
          p2p_balance[{op.peer, r, op.tag, op.comm.get()}] -= 1;
          break;
        case OpKind::SendRecv:
          MSC_CHECK(op.peer >= 0 && op.peer < n, where + ": bad sendrecv dst");
          MSC_CHECK(op.recv_peer >= 0 && op.recv_peer < n,
                    where + ": bad sendrecv src");
          p2p_balance[{r, op.peer, op.tag, op.comm.get()}] += 1;
          p2p_balance[{op.recv_peer, r, op.tag, op.comm.get()}] -= 1;
          break;
        default:
          break;
      }
      if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv) {
        MSC_CHECK(op.request == requests,
                  where + ": request slots must be sequential");
        ++requests;
        waited.push_back(false);
      }
      if (op.kind == OpKind::Wait) {
        MSC_CHECK(op.request >= 0 && op.request < requests,
                  where + ": Wait on unknown request");
        MSC_CHECK(!waited[static_cast<std::size_t>(op.request)],
                  where + ": double Wait on request");
        waited[static_cast<std::size_t>(op.request)] = true;
      }
      if (is_collective(op.kind)) {
        (void)comms.get(op.comm);  // rejects an unknown id
        const std::vector<int>& local_of =
            local[static_cast<std::size_t>(op.comm.get())];
        MSC_CHECK(local_of[static_cast<std::size_t>(r)] >= 0,
                  where + ": collective on non-member communicator");
        if (op.kind != OpKind::Barrier && op.kind != OpKind::Allreduce &&
            op.kind != OpKind::Allgather && op.kind != OpKind::Alltoall) {
          MSC_CHECK(op.root >= 0 && op.root < n &&
                        local_of[static_cast<std::size_t>(op.root)] >= 0,
                    where + ": rooted collective needs member root");
        }
        coll_seq[{op.comm.get(), r}].push_back(op.kind);
      }
    }
    MSC_CHECK(depth == 0, where + ": unbalanced Enter/Exit");
    for (std::size_t q = 0; q < waited.size(); ++q)
      MSC_CHECK(waited[q], where + ": request never waited");
  }

  for (const auto& [key, bal] : p2p_balance) {
    if (bal != 0) {
      std::ostringstream os;
      os << "unmatched point-to-point: " << std::get<0>(key) << " -> "
         << std::get<1>(key) << " tag " << std::get<2>(key) << " comm "
         << std::get<3>(key) << " (balance " << bal << ")";
      throw Error(os.str());
    }
  }

  for (std::size_t c = 0; c < comms.size(); ++c) {
    const Communicator& comm = comms.get(CommId{static_cast<int>(c)});
    std::vector<OpKind> ref;
    bool have_ref = false;
    Rank ref_rank = kNoRank;
    for (Rank m : comm.members) {
      auto it = coll_seq.find({static_cast<int>(c), m});
      std::vector<OpKind> seq =
          it == coll_seq.end() ? std::vector<OpKind>{} : it->second;
      if (!have_ref) {
        ref = std::move(seq);
        ref_rank = m;
        have_ref = true;
        continue;
      }
      if (seq != ref) {
        std::ostringstream os;
        os << "collective sequence mismatch on " << comm.name << ": rank "
           << ref_rank << " has " << ref.size() << " collectives, rank " << m
           << " has " << seq.size();
        throw Error(os.str());
      }
    }
  }
}

RankCursor& RankCursor::enter(const std::string& region) {
  Op op;
  op.kind = OpKind::Enter;
  op.region = prog_->regions.intern(region);
  ops().push_back(op);
  return *this;
}

RankCursor& RankCursor::exit() {
  Op op;
  op.kind = OpKind::Exit;
  ops().push_back(op);
  return *this;
}

RankCursor& RankCursor::compute(double seconds) {
  Op op;
  op.kind = OpKind::Compute;
  op.work = seconds;
  ops().push_back(op);
  return *this;
}

RankCursor& RankCursor::send(Rank dst, int tag, double bytes, CommId comm) {
  Op op;
  op.kind = OpKind::Send;
  op.peer = dst;
  op.tag = tag;
  op.bytes = bytes;
  op.comm = comm;
  ops().push_back(op);
  return *this;
}

RankCursor& RankCursor::recv(Rank src, int tag, CommId comm) {
  Op op;
  op.kind = OpKind::Recv;
  op.peer = src;
  op.tag = tag;
  op.comm = comm;
  ops().push_back(op);
  return *this;
}

int RankCursor::isend(Rank dst, int tag, double bytes, CommId comm) {
  Op op;
  op.kind = OpKind::Isend;
  op.peer = dst;
  op.tag = tag;
  op.bytes = bytes;
  op.comm = comm;
  op.request = next_request_++;
  ops().push_back(op);
  return op.request;
}

int RankCursor::irecv(Rank src, int tag, CommId comm) {
  Op op;
  op.kind = OpKind::Irecv;
  op.peer = src;
  op.tag = tag;
  op.comm = comm;
  op.request = next_request_++;
  ops().push_back(op);
  return op.request;
}

RankCursor& RankCursor::wait(int request) {
  Op op;
  op.kind = OpKind::Wait;
  op.request = request;
  ops().push_back(op);
  return *this;
}

RankCursor& RankCursor::sendrecv(Rank dst, double send_bytes, Rank src,
                                 double recv_bytes, int tag, CommId comm) {
  Op op;
  op.kind = OpKind::SendRecv;
  op.peer = dst;
  op.bytes = send_bytes;
  op.recv_peer = src;
  op.recv_bytes = recv_bytes;
  op.tag = tag;
  op.comm = comm;
  ops().push_back(op);
  return *this;
}

namespace {
Op collective_op(OpKind kind, Rank root, double bytes, CommId comm) {
  Op op;
  op.kind = kind;
  op.root = root;
  op.bytes = bytes;
  op.comm = comm;
  return op;
}
}  // namespace

RankCursor& RankCursor::barrier(CommId comm) {
  ops().push_back(collective_op(OpKind::Barrier, kNoRank, 0.0, comm));
  return *this;
}

RankCursor& RankCursor::bcast(Rank root, double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Bcast, root, bytes, comm));
  return *this;
}

RankCursor& RankCursor::reduce(Rank root, double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Reduce, root, bytes, comm));
  return *this;
}

RankCursor& RankCursor::allreduce(double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Allreduce, kNoRank, bytes, comm));
  return *this;
}

RankCursor& RankCursor::gather(Rank root, double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Gather, root, bytes, comm));
  return *this;
}

RankCursor& RankCursor::allgather(double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Allgather, kNoRank, bytes, comm));
  return *this;
}

RankCursor& RankCursor::scatter(Rank root, double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Scatter, root, bytes, comm));
  return *this;
}

RankCursor& RankCursor::alltoall(double bytes, CommId comm) {
  ops().push_back(collective_op(OpKind::Alltoall, kNoRank, bytes, comm));
  return *this;
}

}  // namespace metascope::simmpi
