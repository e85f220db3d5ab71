#include "analysis/prepare.hpp"

#include <algorithm>
#include <map>
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

namespace {

[[noreturn]] void fail_at(Rank rank, std::uint32_t i, const char* what) {
  std::ostringstream os;
  os << "malformed trace: rank " << rank << " event " << i << ": " << what;
  throw Error(os.str());
}

}  // namespace

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

std::size_t CommTables::member_slot(int comm, int seq, Rank rank) const {
  const auto c = static_cast<std::size_t>(comm);
  const std::vector<Rank>& members = comm_ranks[c];
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(members.begin(), members.end(), rank) -
      members.begin());
  return member_begin[c] + static_cast<std::size_t>(seq) * members.size() +
         pos;
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
  out.tc = &tc;
  out.region_table = RegionClassTable(tc.defs.regions);
  out.per_rank.resize(static_cast<std::size_t>(tc.num_ranks()));
  out.excl_time.resize(static_cast<std::size_t>(tc.num_ranks()));
  out.rank_span.resize(static_cast<std::size_t>(tc.num_ranks()), 0.0);
  const std::size_t ncomm = tc.defs.comms.size();

  // Pass 1 (serial): call-path id assignment + structural validation.
  // Ids must be identical to the historical single-pass walk — ranks in
  // order, events in order, get_or_add at every Enter — so serial and
  // parallel cubes stay bit-identical for any worker count. The walk
  // also performs every structural check (unbalanced Enter/Exit,
  // message outside a region, negative durations), so the parallel
  // annotation pass below runs on validated input and cannot fail.
  // Per rank it records the assigned id of each Enter, in order; the
  // annotation pass replays the stack from that list without touching
  // the (single-threaded) call-tree index.
  std::vector<std::vector<CallPathId>> enter_cnodes(
      static_cast<std::size_t>(tc.num_ranks()));
  for (const auto& trace : tc.ranks) {
    auto& enters = enter_cnodes[static_cast<std::size_t>(trace.rank)];
    struct OpenFrame {
      CallPathId cnode;
      double enter_time;
    };
    std::vector<OpenFrame> stack;
    for (std::uint32_t i = 0; i < trace.events.size(); ++i) {
      const Event& e = trace.events[i];
      switch (e.type) {
        case EventType::Enter: {
          const CallPathId parent =
              stack.empty() ? CallPathId{} : stack.back().cnode;
          const CallPathId c = out.calls.get_or_add(parent, e.region);
          stack.push_back(OpenFrame{c, e.time});
          enters.push_back(c);
          break;
        }
        case EventType::Exit:
        case EventType::CollExit: {
          if (stack.empty()) fail_at(trace.rank, i, "Exit without Enter");
          if (e.time - stack.back().enter_time < 0.0)
            fail_at(trace.rank, i, "negative region duration");
          if (e.type == EventType::CollExit &&
              (e.comm.get() < 0 ||
               static_cast<std::size_t>(e.comm.get()) >= ncomm))
            fail_at(trace.rank, i, "collective on an unknown communicator");
          stack.pop_back();
          break;
        }
        case EventType::Send:
        case EventType::Recv: {
          if (stack.empty())
            fail_at(trace.rank, i, "message event outside any region");
          break;
        }
      }
    }
    if (!stack.empty())
      fail_at(trace.rank, static_cast<std::uint32_t>(trace.events.size()),
              "unclosed region");
  }

  // Pass 2 (parallel, one task per rank): the heavy per-event
  // annotation — call-path tags, enclosing-op windows, the op-event
  // index the replay iterates, exclusive times, rank spans, and the
  // rank's share of the communication tables. Each task writes only its
  // own rank's slots and reads the call tree ids from its private enter
  // list, so results are deterministic and identical for every worker
  // count.
  std::vector<RankComm> comm_in(static_cast<std::size_t>(tc.num_ranks()));
  telemetry::RecordingObserver rec_obs(
      "prepare", telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), max_workers,
      [&](std::size_t ti) {
        const auto& trace = tc.ranks[ti];
        const auto ri = static_cast<std::size_t>(trace.rank);
        const auto& enters = enter_cnodes[ri];
        auto& ann = out.per_rank[ri];
        RankComm& rc = comm_in[ri];
        rc.colls.assign(ncomm, 0);
        const std::size_t n = trace.events.size();
        ann.cnode.assign(n, CallPathId{});
        ann.op_enter.assign(n, 0.0);
        ann.op_exit.assign(n, 0.0);

        struct Frame {
          CallPathId cnode;
          double enter_time;
          double child_time;
          std::uint32_t first_event;  ///< first event index in this frame
        };
        std::vector<Frame> stack;
        std::vector<bool> op_filled(n, false);
        std::size_t next_enter = 0;
        // Per-cnode exclusive accumulation for this rank (ordered map:
        // the emitted ExclusiveTime list is sorted by call-path id).
        std::map<int, double> excl;

        for (std::uint32_t i = 0; i < n; ++i) {
          const Event& e = trace.events[i];
          switch (e.type) {
            case EventType::Enter: {
              const CallPathId c = enters[next_enter++];
              stack.push_back(Frame{c, e.time, 0.0, i + 1});
              ann.cnode[i] = c;
              break;
            }
            case EventType::Exit:
            case EventType::CollExit: {
              Frame f = stack.back();
              stack.pop_back();
              ann.cnode[i] = f.cnode;
              const double dur = e.time - f.enter_time;
              excl[f.cnode.get()] += dur - f.child_time;
              if (!stack.empty()) stack.back().child_time += dur;
              // Backfill enclosing-op times for the events inside this
              // frame (Send/Recv live directly inside their MPI call
              // frame).
              for (std::uint32_t k = f.first_event; k < i; ++k) {
                if ((trace.events[k].type == EventType::Send ||
                     trace.events[k].type == EventType::Recv) &&
                    !op_filled[k]) {
                  ann.op_enter[k] = f.enter_time;
                  ann.op_exit[k] = e.time;
                  op_filled[k] = true;
                }
              }
              if (e.type == EventType::CollExit) {
                ann.op_enter[i] = f.enter_time;
                ann.op_exit[i] = e.time;
                ++rc.colls[static_cast<std::size_t>(e.comm.get())];
                ann.op_events.push_back(i);
              }
              break;
            }
            case EventType::Send:
              rc.send_peers.push_back(e.peer);
              ann.cnode[i] = stack.back().cnode;
              ann.op_events.push_back(i);
              break;
            case EventType::Recv:
              ++rc.recvs;
              ann.cnode[i] = stack.back().cnode;
              ann.op_events.push_back(i);
              break;
          }
        }

        auto& et = out.excl_time[ri];
        et.reserve(excl.size());
        for (const auto& [cnode, seconds] : excl)
          et.push_back(ExclusiveTime{CallPathId{cnode}, seconds});

        if (!trace.events.empty())
          out.rank_span[ri] =
              trace.events.back().time - trace.events.front().time;
      },
      &rec_obs);
  telemetry::record_stage_parallelism("prepare", pst);

  out.comm = build_comm_tables(tc.defs, comm_in, max_workers);
  telemetry::counter("prepare.ranks").add(out.per_rank.size());
  telemetry::counter("prepare.call_paths").add(out.calls.size());
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  return out;
}

}  // namespace metascope::analysis
