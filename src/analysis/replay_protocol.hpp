// The replay protocol both parallel analyzers run (paper §4 "Parallel
// trace analysis"): every rank is a resumable task that re-enacts its
// recorded communication, moving only the few bytes each pattern formula
// needs instead of whole traces.
//
//   sender:     push {enter, exit, cnode, tag, comm} -> (sender, receiver)
//               channel
//   receiver:   take the oldest message with its (tag, comm) from that
//               channel
//   collective: write {rank, enter, exit, cnode} into the member's own
//               slot of the instance
//
// Only a receive whose message has not been sent yet suspends its task
// (yields the worker back to the pool); the sender that fills the
// channel resumes it. Senders never block, like eager MPI sends, and
// collective members never wait for their instance to complete: the
// pattern engine evaluates instances after the whole replay, so there is
// nothing to wait for. Channels, receive-record slots and collective
// member slots are the dense tables prepare() lays out (CommTables), so
// the replay path neither hashes an envelope nor takes a lock.
//
// The replay only *collects* match records; pattern evaluation happens
// afterwards in the pattern engine's canonical dispatch order, which is
// what makes the cube bit-identical to analyze_serial for any worker
// count and any interleaving.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/replay_scheduler.hpp"

namespace metascope::analysis {

/// What a sender shares with its receiver: the enclosing MPI call's
/// window and call path, plus the envelope the receive matches on.
struct Message {
  double op_enter{0.0};
  double op_exit{0.0};
  CallPathId cnode;
  int tag{0};
  int comm{0};
};

/// The in-flight messages of one (sender, receiver) pair: an unbounded
/// single-producer / single-consumer queue of fixed-size chunks plus the
/// receiver's park flag. Only the sender's task sends and only the
/// receiver's task receives, so neither side takes a lock, and memory
/// stays proportional to the messages in flight.
class MessageChannel {
 public:
  MessageChannel() = default;
  ~MessageChannel();
  MessageChannel(const MessageChannel&) = delete;
  MessageChannel& operator=(const MessageChannel&) = delete;

  /// Sender side; never blocks. Returns true when the receiver was
  /// parked on this channel: exactly one send sees true per park, and
  /// its caller must resume the receiver.
  bool send(const Message& m);

  /// Receiver side: moves the oldest in-flight message with this (tag,
  /// comm) into `out` — MPI's non-overtaking order per envelope. Returns
  /// false when there is none; the receiver is then parked and must
  /// suspend until a send() reports it. The queue is checked again after
  /// parking, so a message sent in between is never missed.
  bool receive(int tag, int comm, Message& out);

 private:
  static constexpr std::size_t kChunk = 16;
  struct Chunk {
    std::array<Message, kChunk> slot;
    Chunk* next{nullptr};
  };

  /// Next queued message, if any (receiver side).
  bool pop(Message& out);

  // Sender side. The receiver reads `published_` (acquire) before it
  // touches a chunk, and writes `parked_` only when it parks.
  Chunk* tail_{nullptr};
  std::size_t tail_pos_{kChunk};
  std::uint64_t sent_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<bool> parked_{false};

  // Receiver side, on its own cache line. `head_` is set by the first
  // send, before it publishes.
  alignas(64) Chunk* head_{nullptr};
  std::size_t head_pos_{0};
  std::uint64_t taken_{0};
  /// Messages taken off the queue while looking for another envelope,
  /// oldest first — all older than anything still queued.
  std::vector<Message> stash_;
};

/// One run of the replay protocol over a trace's CommTables: the message
/// channels, the receive-record and collective-member slots, each rank
/// task's replay state, and the worker pool that drives the tasks.
class ReplayProtocol {
 public:
  ReplayProtocol(const CommTables& tables, const report::CallTree& calls,
                 const ReplayOptions& opts);

  /// Re-enacts communication event `e` of rank task `t` (Send, Recv or
  /// CollExit; other events are ignored) with its enclosing MPI call's
  /// window, its call path and its position `index` in the rank's
  /// trace. Returns false when the task must suspend — a Recv whose
  /// message has not been sent yet. The sender then resumes the task,
  /// which passes the same event again.
  bool replay(std::size_t t, const tracing::Event& e, double op_enter,
              double op_exit, CallPathId cnode, std::uint32_t index);

  /// Drives every rank task to Done (ReplayScheduler::run).
  void run(const ReplayScheduler::StepFn& step) { sched_.run(step); }

  /// Makes task `t`, which is about to return Suspend, runnable again:
  /// a cooperative yield.
  void yield(std::size_t t) { sched_.resume(t); }

  /// Dispatches the collected records through `engine` in canonical
  /// order and fills the replay's share of `stats`: messages, collective
  /// instances, wire bytes and scheduler counters.
  void finish(PatternEngine& engine, AnalysisStats& stats);

 private:
  struct alignas(64) RankState {
    std::vector<int> coll_seq;  ///< per-communicator instance counter
    std::size_t received{0};    ///< Recv events matched so far
    std::uint64_t wire_bytes{0};
  };

  const CommTables* tables_;
  const report::CallTree* calls_;
  std::vector<MessageChannel> channels_;
  std::vector<P2pRecord> records_;
  CollectiveSlots slots_;
  std::vector<RankState> ranks_;
  telemetry::Counter& replay_bytes_;
  std::uint64_t replay_bytes0_;
  ReplayScheduler sched_;
};

}  // namespace metascope::analysis
