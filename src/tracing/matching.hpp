// Post-mortem message matching, a join under MPI's non-overtaking rule:
// the k-th receive on an envelope (source, destination, tag,
// communicator) takes the k-th send on it. Both analysis modes pair
// their messages with join_messages: match_messages feeds it the keys of
// an in-memory collection (the materializing analyzers, the
// clock-condition checker, amortization and the flat profile), and
// analysis::analyze_streaming the keys its light pass collects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tracing/trace.hpp"

namespace metascope::tracing {

struct EventRef {
  Rank rank{kNoRank};
  std::uint32_t index{0};

  bool operator==(const EventRef&) const = default;
};

struct MessagePair {
  EventRef send;
  EventRef recv;

  bool operator==(const MessagePair&) const = default;
};

/// A Send or Recv as its own rank sees it: the envelope (peer, tag,
/// communicator) and a position the caller chooses, which the join hands
/// back with every pair it reports.
struct MessageKey {
  Rank peer{kNoRank};
  int tag{0};
  int comm{0};
  std::uint32_t pos{0};
};

/// Sorts one rank's keys of one side by envelope, stably, so each
/// envelope keeps program order.
void sort_by_envelope(std::span<MessageKey> keys);

/// Each rank's keys of one side, envelope-sorted, indexed by rank.
using RankKeys = std::vector<std::span<const MessageKey>>;

/// Called once per matched message with the receive key's rank and pos
/// and the send key's rank and pos.
using PairFn = std::function<void(Rank receiver, std::uint32_t recv_pos,
                                  Rank sender, std::uint32_t send_pos)>;

/// Pairs every rank's receives with the sends on the mirrored envelope,
/// one rank per task on up to `max_workers` threads (0 = hardware
/// concurrency): the j-th receive of an envelope's run takes the j-th
/// send of its mirror. A rank's pairs are reported from the task that
/// joins it, so `on_pair` runs concurrently for distinct receivers.
/// Throws Error if any send or receive remains unmatched, naming the
/// lowest leftover envelope, sends first ("unmatched RECV 0 -> 1 tag 5
/// (1 left)").
void join_messages(const RankKeys& sends, const RankKeys& recvs,
                   std::size_t max_workers, const PairFn& on_pair);

/// Matches all messages in the collection on up to `max_workers` threads
/// (0 = hardware concurrency): one scan per rank collects its keys, then
/// join_messages pairs them. Pairs come out by receiver rank, then
/// receive position, for every worker count. Throws join_messages'
/// Error if any send or receive remains unmatched.
std::vector<MessagePair> match_messages(const TraceCollection& tc,
                                        std::size_t max_workers = 0);

}  // namespace metascope::tracing
