#include "analysis/replay_protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "telemetry/progress.hpp"

namespace metascope::analysis {

using tracing::EventType;

namespace {

[[noreturn]] void unmatched_send(Rank src, Rank dst, std::uint64_t left) {
  throw Error("unmatched SEND " + std::to_string(src) + " -> " +
              std::to_string(dst) + " (" + std::to_string(left) +
              " left): no receive in the trace takes it");
}

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

ReplayProtocol::TelemetryObserver::TelemetryObserver(
    std::uint32_t item_stride)
    : telemetry::RecordingObserver("replay", item_stride),
      h_task_runtime_us_(telemetry::histogram(
          "replay.task_runtime_us",
          {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6})),
      h_queue_depth_(telemetry::histogram(
          "replay.queue_depth",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0})) {}

bool ReplayProtocol::TelemetryObserver::wants_samples() const {
  return telemetry::enabled();
}

void ReplayProtocol::TelemetryObserver::on_task_done(std::size_t done,
                                                     std::size_t total) {
  if (telemetry::progress_enabled())
    telemetry::progress("replay", static_cast<double>(done) /
                                      static_cast<double>(total));
}

void ReplayProtocol::TelemetryObserver::on_task_runtime_us(double us) {
  h_task_runtime_us_.observe(us);
}

void ReplayProtocol::TelemetryObserver::on_queue_depth(double depth) {
  h_queue_depth_.observe(depth);
}

ReplayProtocol::ReplayProtocol(const CommTables& tables,
                               const report::CallTree& calls,
                               const ReplayOptions& opts)
    : tables_(&tables),
      calls_(&calls),
      channels_(tables.num_channels()),
      records_(tables.num_records()),
      slots_(tables),
      ranks_(tables.recv_begin.size() - 1),
      pool_(ranks_.size(), opts.max_workers),
      obs_(telemetry::RecordingObserver::fanout_stride(ranks_.size())),
      postmortem_events_(opts.postmortem_events) {
  for (RankState& st : ranks_) st.coll_seq.assign(tables.comm_ranks.size(), 0);
  pool_.set_observer(&obs_);
}

bool ReplayProtocol::replay(std::size_t t, const tracing::Event& e,
                            const OpRecord& op) {
  const auto me = static_cast<Rank>(t);
  RankState& st = ranks_[t];
  switch (e.type) {
    case EventType::Send: {
      // Every in-range destination has a channel (prepare saw this
      // Send), so only a rank outside the trace has none.
      const std::size_t c = tables_->channel(me, e.peer);
      if (c == CommTables::kNoChannel) unmatched_send(me, e.peer, 1);
      if (channels_[c].send(
              Message{op.op_enter, op.op_exit, op.cnode, e.tag, e.comm.get()}))
        pool_.resume(static_cast<std::size_t>(e.peer));
      return true;
    }
    case EventType::Recv: {
      const std::size_t c = tables_->channel(e.peer, me);
      Message m;
      // A pair nobody ever sends on cannot match: the task suspends for
      // good, and run() reports the replay deadlock.
      if (c == CommTables::kNoChannel ||
          !channels_[c].receive(e.tag, e.comm.get(), m))
        return false;
      const std::size_t slot = tables_->recv_begin[t] + st.received++;
      MSC_CHECK(slot < tables_->recv_begin[t + 1],
                "replay matched more receives than prepare counted");
      records_[slot] = P2pRecord{
          P2pSide{e.peer, m.op_enter, m.op_exit, m.cnode,
                  calls_->node(m.cnode).region},
          make_side(*calls_, me, op)};
      return true;
    }
    case EventType::CollExit: {
      const int comm = e.comm.get();
      slots_.arrive(comm, st.coll_seq[static_cast<std::size_t>(comm)]++,
                    CollMember{me, op.op_enter, op.op_exit, op.cnode}, e.root,
                    e.region);
      return true;
    }
    case EventType::Enter:
    case EventType::Exit:
      break;
  }
  return true;
}

void ReplayProtocol::run(const WorkerPool::StepFn& step) {
  telemetry::gauge("replay.workers")
      .set(static_cast<double>(pool_.stats().workers));
  try {
    pool_.run(step);
  } catch (const DeadlockError& dl) {
    // Rephrase the generic pool deadlock in replay terms. If the flight
    // recorder was on, dump what every worker was doing just before the
    // hang first — the workers have joined by now, so the rings are
    // quiescent.
    if (postmortem_events_ > 0) {
      const std::string pm = telemetry::postmortem_report(postmortem_events_);
      if (!pm.empty()) std::fprintf(stderr, "%s", pm.c_str());
    }
    throw Error("parallel replay deadlocked: " +
                std::to_string(dl.stuck_tasks()) + " of " +
                std::to_string(dl.total_tasks()) +
                " rank tasks suspended with no runnable peer (unmatched "
                "receive or truncated trace?)");
  }
  // Every task is done, so a message still in a channel was sent to a
  // rank that never received it.
  for (std::size_t src = 0; src + 1 < tables_->pair_begin.size(); ++src)
    for (std::size_t c = tables_->pair_begin[src];
         c < tables_->pair_begin[src + 1]; ++c)
      if (const std::uint64_t left = channels_[c].pending(); left > 0)
        unmatched_send(static_cast<Rank>(src), tables_->pair_dst[c], left);
  // Registry counters stay cumulative: add this run's exact deltas.
  const PoolStats& ps = pool_.stats();
  telemetry::counter("replay.suspensions").add(ps.suspensions);
  telemetry::counter("replay.steals").add(ps.steals);
  telemetry::counter("replay.requeues").add(ps.requeues);
  telemetry::counter("replay.tasks").add(ps.tasks);
}

void ReplayProtocol::finish(PatternEngine& engine, AnalysisStats& stats) {
  engine.dispatch(std::move(records_), slots_.take(), stats);
  fill_replay_bytes(*tables_, stats);
  const PoolStats& ps = pool_.stats();
  stats.replay_workers = ps.workers;
  stats.replay_tasks = ps.tasks;
  stats.replay_suspensions = ps.suspensions;
  stats.replay_steals = ps.steals;
  stats.replay_requeues = ps.requeues;
}

}  // namespace metascope::analysis
