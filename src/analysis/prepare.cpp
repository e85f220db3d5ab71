#include "analysis/prepare.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

RankWalk::RankWalk(Rank rank, std::size_t num_comms, report::CallTree& calls,
                   RankComm& rc)
    : rank_(rank), calls_(calls), rc_(rc) {
  rc_ = RankComm{};
  rc_.colls.assign(num_comms, 0);
}

void RankWalk::fail(const char* what) const {
  std::ostringstream os;
  os << "malformed trace: rank " << rank_ << " event " << index_ << ": "
     << what;
  throw Error(os.str());
}

CallPathId RankWalk::step(const Event& e) {
  CallPathId c;
  switch (e.type) {
    case EventType::Enter:
      c = calls_.get_or_add(stack_.empty() ? CallPathId{} : stack_.back().cnode,
                            e.region);
      stack_.push_back(Frame{c, e.time});
      break;
    case EventType::Exit:
    case EventType::CollExit:
      if (stack_.empty()) fail("Exit without Enter");
      if (e.time - stack_.back().enter_time < 0.0)
        fail("negative region duration");
      if (e.type == EventType::CollExit) {
        const auto comm = static_cast<std::size_t>(e.comm.get());
        if (e.comm.get() < 0 || comm >= rc_.colls.size())
          fail("collective on an unknown communicator");
        ++rc_.colls[comm];
      }
      c = stack_.back().cnode;
      stack_.pop_back();
      break;
    case EventType::Send:
    case EventType::Recv:
      if (stack_.empty()) fail("message event outside any region");
      if (e.type == EventType::Send)
        rc_.send_peers.push_back(e.peer);
      else
        ++rc_.recvs;
      c = stack_.back().cnode;
      break;
  }
  ++index_;
  return c;
}

std::uint32_t RankWalk::finish() const {
  if (!stack_.empty()) fail("unclosed region");
  return index_;
}

OpWalk::OpWalk(const report::CallTree& calls, std::vector<OpRecord>& ops)
    : calls_(calls), ops_(ops) {}

bool OpWalk::step(const Event& e) {
  const std::uint32_t index = index_++;
  switch (e.type) {
    case EventType::Enter: {
      const CallPathId c = calls_.find(
          stack_.empty() ? CallPathId{} : stack_.back().cnode, e.region);
      MSC_CHECK(c.valid(),
                "op walk met a call path the structural walk never created");
      stack_.push_back(Frame{c, e.time, 0.0, open_.size()});
      return false;
    }
    case EventType::Exit:
    case EventType::CollExit: {
      const Frame f = stack_.back();
      stack_.pop_back();
      const double dur = e.time - f.enter_time;
      excl_[f.cnode.get()] += dur - f.child_time;
      if (!stack_.empty()) stack_.back().child_time += dur;
      // Inner regions have closed their own slots already, so the ones
      // left above this frame's base sit directly inside it.
      for (std::size_t k = f.open_base; k < open_.size(); ++k) {
        OpRecord& op = ops_[open_[k]];
        op.op_enter = f.enter_time;
        op.op_exit = e.time;
      }
      open_.resize(f.open_base);
      if (e.type == EventType::Exit) return false;
      ops_.push_back(OpRecord{index, f.cnode, f.enter_time, e.time});
      return true;
    }
    case EventType::Send:
    case EventType::Recv:
      open_.push_back(static_cast<std::uint32_t>(ops_.size()));
      ops_.push_back(OpRecord{index, stack_.back().cnode, 0.0, 0.0});
      return true;
  }
  return false;
}

std::vector<ExclusiveTime> OpWalk::exclusive_times() const {
  std::vector<ExclusiveTime> out;
  out.reserve(excl_.size());
  for (const auto& [cnode, seconds] : excl_)
    out.push_back(ExclusiveTime{CallPathId{cnode}, seconds});
  return out;
}

std::size_t CommTables::channel(Rank src, Rank dst) const {
  if (src < 0 || static_cast<std::size_t>(src) + 1 >= pair_begin.size())
    return kNoChannel;
  const auto s = static_cast<std::size_t>(src);
  const auto first =
      pair_dst.begin() + static_cast<std::ptrdiff_t>(pair_begin[s]);
  const auto last =
      pair_dst.begin() + static_cast<std::ptrdiff_t>(pair_begin[s + 1]);
  const auto it = std::lower_bound(first, last, dst);
  return it != last && *it == dst
             ? static_cast<std::size_t>(it - pair_dst.begin())
             : kNoChannel;
}

CommTables build_comm_tables(const tracing::TraceDefs& defs,
                             std::vector<RankComm>& ranks,
                             std::size_t max_workers) {
  const std::size_t n = ranks.size();
  const std::size_t ncomm = defs.comms.size();
  const auto colls = [&](std::size_t r, std::size_t c) {
    return ranks[r].colls.empty() ? 0 : ranks[r].colls[c];
  };
  CommTables t;

  // Collective completeness: every member of a communicator must have
  // recorded the same number of collectives on it, and nobody else any.
  // Failing here (instead of mid-replay) rejects a truncated trace before
  // any worker could wait on an instance that will never complete.
  t.comm_ranks.resize(ncomm);
  t.member_begin.assign(ncomm + 1, 0);
  t.instance_begin.assign(ncomm + 1, 0);
  for (std::size_t c = 0; c < ncomm; ++c) {
    const tracing::CommDef& comm = defs.comms[c];
    std::vector<Rank>& members = t.comm_ranks[c];
    members = comm.members;
    std::sort(members.begin(), members.end());
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (members[k] < 0 || static_cast<std::size_t>(members[k]) >= n ||
          (k > 0 && members[k] == members[k - 1])) {
        std::ostringstream os;
        os << "malformed definitions: communicator " << comm.id.get()
           << " lists rank " << members[k]
           << (k > 0 && members[k] == members[k - 1] ? " twice"
                                                     : " out of range");
        throw Error(os.str());
      }
    }
    int expected = 0;
    if (!members.empty()) {
      expected = colls(static_cast<std::size_t>(comm.members.front()), c);
      for (const Rank r : comm.members) {
        const int got = colls(static_cast<std::size_t>(r), c);
        if (got != expected) {
          std::ostringstream os;
          os << "incomplete collective instance in trace: rank " << r
             << " recorded " << got << " collectives on communicator "
             << comm.id.get() << " but rank " << comm.members.front()
             << " recorded " << expected;
          throw Error(os.str());
        }
      }
    }
    std::size_t total = 0;
    for (std::size_t r = 0; r < n; ++r)
      total += static_cast<std::size_t>(colls(r, c));
    const auto instances = static_cast<std::size_t>(expected);
    if (total != instances * members.size()) {
      for (std::size_t r = 0; r < n; ++r) {
        if (colls(r, c) == 0 ||
            std::binary_search(members.begin(), members.end(),
                               static_cast<Rank>(r)))
          continue;
        std::ostringstream os;
        os << "malformed trace: rank " << r << " recorded " << colls(r, c)
           << " collectives on communicator " << comm.id.get()
           << " but is not a member of it";
        throw Error(os.str());
      }
    }
    t.instance_begin[c + 1] = t.instance_begin[c] + instances;
    t.member_begin[c + 1] = t.member_begin[c] + instances * members.size();
  }

  // Sender-major channel directory: each rank's distinct in-range
  // destinations, ascending.
  parallel_for(n, max_workers, [&](std::size_t r) {
    std::vector<Rank>& peers = ranks[r].send_peers;
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    std::erase_if(peers, [n](Rank p) {
      return p < 0 || static_cast<std::size_t>(p) >= n;
    });
  });
  t.pair_begin.assign(n + 1, 0);
  t.recv_begin.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    t.pair_begin[r + 1] = t.pair_begin[r] + ranks[r].send_peers.size();
    t.recv_begin[r + 1] = t.recv_begin[r] + ranks[r].recvs;
  }
  t.pair_dst.reserve(t.pair_begin[n]);
  for (const RankComm& rc : ranks)
    t.pair_dst.insert(t.pair_dst.end(), rc.send_peers.begin(),
                      rc.send_peers.end());
  return t;
}

PreparedTrace prepare(const tracing::TraceCollection& tc,
                      std::size_t max_workers) {
  telemetry::ScopedSpan span("prepare");
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 0.0);
  PreparedTrace out;
  const auto n = static_cast<std::size_t>(tc.num_ranks());
  out.ops.resize(n);
  out.excl_time.resize(n);

  // Pass 1 (serial): the structural walk, ranks in order — call-path
  // ids, every structural check and the communication counts — so the
  // parallel op walk below runs on validated input against a finished
  // call tree.
  std::vector<RankComm> comm_in(n);
  for (const auto& trace : tc.ranks) {
    RankWalk walk(trace.rank, tc.defs.comms.size(), out.calls,
                  comm_in[static_cast<std::size_t>(trace.rank)]);
    for (const Event& e : trace.events) (void)walk.step(e);
    (void)walk.finish();
  }

  // Pass 2 (parallel, one task per rank): the op walk — the records the
  // replay iterates and the exclusive times. Each task writes only its
  // own rank's slots and only reads the call tree, so results are
  // deterministic and identical for every worker count.
  telemetry::RecordingObserver rec_obs(
      "prepare", telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), max_workers,
      [&](std::size_t ti) {
        const auto& trace = tc.ranks[ti];
        const auto ri = static_cast<std::size_t>(trace.rank);
        // Pass 1 counted the rank's ops (send_peers is deduplicated only
        // by build_comm_tables, below), so the records fit exactly.
        const RankComm& rc = comm_in[ri];
        std::size_t num_ops = rc.send_peers.size() + rc.recvs;
        for (const int c : rc.colls) num_ops += static_cast<std::size_t>(c);
        out.ops[ri].reserve(num_ops);
        OpWalk walk(out.calls, out.ops[ri]);
        for (const Event& e : trace.events) (void)walk.step(e);
        out.excl_time[ri] = walk.exclusive_times();
      },
      &rec_obs);
  telemetry::record_stage_parallelism("prepare", pst);

  out.comm = build_comm_tables(tc.defs, comm_in, max_workers);
  telemetry::counter("prepare.ranks").add(out.ops.size());
  telemetry::counter("prepare.call_paths").add(out.calls.size());
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  return out;
}

}  // namespace metascope::analysis
