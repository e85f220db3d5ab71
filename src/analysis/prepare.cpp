#include "analysis/prepare.hpp"

#include <algorithm>
#include <exception>
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

void RankComm::add(const Event& e) {
  if (e.type == EventType::Recv) {
    ++recvs;
  } else if (e.type == EventType::CollExit) {
    const auto comm = static_cast<std::size_t>(e.comm.get());
    if (comm >= colls.size()) colls.resize(comm + 1, 0);
    ++colls[comm];
  }
}

RankWalk::RankWalk(Rank rank, std::size_t num_comms,
                   std::vector<OpRecord>& ops)
    : rank_(rank), num_comms_(num_comms), ops_(ops) {}

void RankWalk::fail(const char* what) const {
  std::ostringstream os;
  os << "malformed trace: rank " << rank_ << " event " << index_ << ": "
     << what;
  throw Error(os.str());
}

bool RankWalk::step(const Event& e) {
  bool recorded = false;
  switch (e.type) {
    case EventType::Enter: {
      const CallPathId c = calls_.get_or_add(
          stack_.empty() ? CallPathId{} : stack_.back().cnode, e.region);
      if (excl_.size() < calls_.size()) excl_.resize(calls_.size(), 0.0);
      stack_.push_back(Frame{c, e.time, 0.0, open_.size()});
      break;
    }
    case EventType::Exit:
    case EventType::CollExit: {
      if (stack_.empty()) fail("Exit without Enter");
      const Frame f = stack_.back();
      const double dur = e.time - f.enter_time;
      if (dur < 0.0) fail("negative region duration");
      if (e.type == EventType::CollExit &&
          (e.comm.get() < 0 ||
           static_cast<std::size_t>(e.comm.get()) >= num_comms_))
        fail("collective on an unknown communicator");
      stack_.pop_back();
      excl_[static_cast<std::size_t>(f.cnode.get())] += dur - f.child_time;
      if (!stack_.empty()) stack_.back().child_time += dur;
      // Inner regions have closed their own slots already, so the ones
      // left above this frame's base sit directly inside it.
      for (std::size_t k = f.open_base; k < open_.size(); ++k) {
        OpRecord& op = ops_[open_[k]];
        op.op_enter = f.enter_time;
        op.op_exit = e.time;
      }
      open_.resize(f.open_base);
      if (e.type == EventType::CollExit) {
        ops_.push_back(OpRecord{index_, f.cnode, f.enter_time, e.time});
        recorded = true;
      }
      break;
    }
    case EventType::Send:
    case EventType::Recv:
      if (stack_.empty()) fail("message event outside any region");
      open_.push_back(static_cast<std::uint32_t>(ops_.size()));
      ops_.push_back(OpRecord{index_, stack_.back().cnode, 0.0, 0.0});
      recorded = true;
      break;
  }
  ++index_;
  return recorded;
}

void RankWalk::finish(CallPathPool& paths) const {
  if (!stack_.empty()) fail("unclosed region");
  paths.add(static_cast<std::size_t>(rank_), calls_, excl_);
}

void CallPathPool::add(std::size_t r, const report::CallTree& calls,
                       const std::vector<double>& excl) {
  const std::lock_guard<std::mutex> lock(mutex_);
  at_[r] = Slot{nodes_.size(), calls.size()};
  for (std::size_t c = 0; c < calls.size(); ++c)
    nodes_.push_back(calls.node(CallPathId{static_cast<int>(c)}));
  excl_.insert(excl_.end(), excl.begin(), excl.end());
}

std::vector<std::vector<CallPathId>> CallPathPool::unify(
    report::CallTree& global,
    std::vector<std::vector<ExclusiveTime>>& excl_time) const {
  std::vector<std::vector<CallPathId>> ids(at_.size());
  for (std::size_t r = 0; r < at_.size(); ++r) {
    const Slot at = at_[r];
    std::vector<CallPathId>& id = ids[r];
    std::vector<ExclusiveTime>& excl = excl_time[r];
    id.resize(at.count);
    excl.resize(at.count);
    for (std::size_t c = 0; c < at.count; ++c) {
      const report::CallPathNode& n = nodes_[at.first + c];
      id[c] = global.get_or_add(
          n.parent.valid() ? id[static_cast<std::size_t>(n.parent.get())]
                           : CallPathId{},
          n.region);
      excl[c] = ExclusiveTime{id[c], excl_[at.first + c]};
    }
    std::sort(excl.begin(), excl.end(),
              [](const ExclusiveTime& a, const ExclusiveTime& b) {
                return a.cnode.get() < b.cnode.get();
              });
  }
  return ids;
}

CommTables build_comm_tables(const tracing::TraceDefs& defs,
                             const std::vector<RankComm>& ranks) {
  const std::size_t n = ranks.size();
  const std::size_t ncomm = defs.comms.size();
  const auto colls = [&](std::size_t r, std::size_t c) {
    return c < ranks[r].colls.size() ? ranks[r].colls[c] : 0;
  };
  CommTables t;

  // Collective completeness: every member of a communicator must have
  // recorded the same number of collectives on it, and nobody else any.
  // Failing here rejects a truncated trace before any record is built,
  // so every member slot a CollExit fills exists.
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

  t.recv_begin.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r)
    t.recv_begin[r + 1] = t.recv_begin[r] + ranks[r].recvs;
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

  // One walk per rank, each into its own call tree and writing only its
  // own rank's slots. A walk's error is stashed, not thrown, so the
  // lowest failing rank surfaces whatever the schedule.
  CallPathPool paths(n);
  std::vector<RankComm> comm_in(n);
  std::vector<std::exception_ptr> err(n);
  telemetry::RecordingObserver rec_obs(
      "prepare", telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), max_workers,
      [&](std::size_t ti) {
        const auto& trace = tc.ranks[ti];
        const auto ri = static_cast<std::size_t>(trace.rank);
        try {
          RankWalk walk(trace.rank, tc.defs.comms.size(), out.ops[ri]);
          for (const Event& e : trace.events)
            if (walk.step(e)) comm_in[ri].add(e);
          walk.finish(paths);
        } catch (const Error& e) {
          err[ri] = std::make_exception_ptr(
              e.with_context(ErrorContext{{}, trace.rank, -1}));
        }
        out.ops[ri].shrink_to_fit();
      },
      &rec_obs);
  telemetry::record_stage_parallelism("prepare", pst);
  for (const std::exception_ptr& e : err)
    if (e) std::rethrow_exception(e);

  // Definition unification, ranks ascending over call-tree nodes; then
  // each rank's records move to the global ids.
  const auto ids = paths.unify(out.calls, out.excl_time);
  parallel_for(n, max_workers, [&](std::size_t r) {
    for (OpRecord& op : out.ops[r])
      op.cnode = ids[r][static_cast<std::size_t>(op.cnode.get())];
  });

  out.comm = build_comm_tables(tc.defs, comm_in);
  telemetry::counter("prepare.ranks").add(out.ops.size());
  telemetry::counter("prepare.call_paths").add(out.calls.size());
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  return out;
}

}  // namespace metascope::analysis
