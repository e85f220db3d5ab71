#include "analysis/replay_protocol.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace metascope::analysis {

using tracing::EventType;

namespace {

/// Bytes one replayed message or collective arrival would put on the
/// wire when packed: rank (4) + two timestamps (16) + call path (4).
constexpr std::size_t kPeerWireBytes = 24;

}  // namespace

// --- MessageChannel ------------------------------------------------------

MessageChannel::~MessageChannel() {
  while (head_ != nullptr) {
    Chunk* next = head_->next;
    delete head_;
    head_ = next;
  }
}

bool MessageChannel::send(const Message& m) {
  if (tail_pos_ == kChunk) {
    auto* c = new Chunk;
    if (tail_ == nullptr)
      head_ = c;
    else
      tail_->next = c;
    tail_ = c;
    tail_pos_ = 0;
  }
  tail_->slot[tail_pos_++] = m;
  // Sequentially consistent publish-then-check, mirrored by receive()'s
  // park-then-check: at least one side sees the other, so a wakeup is
  // never lost.
  published_.store(++sent_, std::memory_order_seq_cst);
  return parked_.load(std::memory_order_seq_cst) &&
         parked_.exchange(false, std::memory_order_seq_cst);
}

bool MessageChannel::pop(Message& out) {
  if (taken_ == published_.load(std::memory_order_acquire)) return false;
  if (head_pos_ == kChunk) {
    // The sender has moved on to the next chunk (it linked it before
    // publishing the message we are about to take), so this one is free.
    Chunk* next = head_->next;
    delete head_;
    head_ = next;
    head_pos_ = 0;
  }
  out = head_->slot[head_pos_++];
  ++taken_;
  return true;
}

bool MessageChannel::receive(int tag, int comm, Message& out) {
  const auto match = [&](const Message& m) {
    return m.tag == tag && m.comm == comm;
  };
  if (const auto it = std::find_if(stash_.begin(), stash_.end(), match);
      it != stash_.end()) {
    out = *it;
    stash_.erase(it);
    return true;
  }
  for (;;) {
    while (pop(out)) {
      if (match(out)) return true;
      stash_.push_back(out);
    }
    parked_.store(true, std::memory_order_seq_cst);
    if (taken_ == published_.load(std::memory_order_seq_cst)) return false;
    // A message landed between the empty pop and the park. Unpark and
    // take it — unless its sender already claimed the wakeup: the resume
    // is then on its way, and the task must suspend to absorb it.
    if (!parked_.exchange(false, std::memory_order_seq_cst)) return false;
  }
}

// --- ReplayProtocol ------------------------------------------------------

ReplayProtocol::ReplayProtocol(const CommTables& tables,
                               const report::CallTree& calls,
                               const ReplayOptions& opts)
    : tables_(&tables),
      calls_(&calls),
      channels_(tables.num_channels()),
      records_(tables.num_records()),
      slots_(tables),
      ranks_(tables.recv_begin.size() - 1),
      replay_bytes_(telemetry::counter("replay.bytes")),
      replay_bytes0_(replay_bytes_.value()),
      sched_(ranks_.size(), opts.max_workers, opts.postmortem_events) {
  for (RankState& st : ranks_) st.coll_seq.assign(tables.comm_ranks.size(), 0);
}

bool ReplayProtocol::replay(std::size_t t, const tracing::Event& e,
                            double op_enter, double op_exit,
                            CallPathId cnode, std::uint32_t index) {
  const auto me = static_cast<Rank>(t);
  RankState& st = ranks_[t];
  switch (e.type) {
    case EventType::Send: {
      const std::size_t c = tables_->channel(me, e.peer);
      // A destination outside the rank range has no channel: nobody can
      // ever receive the message.
      if (c != CommTables::kNoChannel &&
          channels_[c].send(
              Message{op_enter, op_exit, cnode, e.tag, e.comm.get()}))
        sched_.resume(static_cast<std::size_t>(e.peer));
      st.wire_bytes += kPeerWireBytes;
      return true;
    }
    case EventType::Recv: {
      const std::size_t c = tables_->channel(e.peer, me);
      Message m;
      // A pair nobody ever sends on cannot match: the task suspends for
      // good, and the scheduler reports the replay deadlock.
      if (c == CommTables::kNoChannel ||
          !channels_[c].receive(e.tag, e.comm.get(), m))
        return false;
      const std::size_t slot = tables_->recv_begin[t] + st.received++;
      MSC_CHECK(slot < tables_->recv_begin[t + 1],
                "replay matched more receives than prepare counted");
      records_[slot] = P2pRecord{
          P2pSide{e.peer, m.op_enter, m.op_exit, m.cnode,
                  calls_->node(m.cnode).region},
          P2pSide{me, op_enter, op_exit, cnode, calls_->node(cnode).region},
          index};
      return true;
    }
    case EventType::CollExit: {
      const int comm = e.comm.get();
      slots_.arrive(comm, st.coll_seq[static_cast<std::size_t>(comm)]++,
                    CollMember{me, op_enter, op_exit, cnode}, e.root,
                    e.region);
      st.wire_bytes += kPeerWireBytes;
      return true;
    }
    case EventType::Enter:
    case EventType::Exit:
      break;
  }
  return true;
}

void ReplayProtocol::finish(PatternEngine& engine, AnalysisStats& stats) {
  engine.dispatch(std::move(records_), slots_.take(), stats);
  std::uint64_t wire_total = 0;
  for (const RankState& st : ranks_) wire_total += st.wire_bytes;
  replay_bytes_.add(wire_total);
  stats.replay_bytes = replay_bytes_.value() - replay_bytes0_;
  const SchedulerStats& ss = sched_.stats();
  stats.replay_workers = ss.workers;
  stats.replay_tasks = ss.tasks;
  stats.replay_suspensions = ss.suspensions;
  stats.replay_steals = ss.steals;
  stats.replay_requeues = ss.requeues;
}

}  // namespace metascope::analysis
