// Post-mortem message matching, a join under MPI's non-overtaking rule:
// the k-th receive on an envelope (source, destination, tag,
// communicator) takes the k-th send on it. Used by every consumer that
// holds the traces in memory: the materializing analyzers, the
// clock-condition checker, amortization and the flat profile.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Matches all messages in the collection on up to `max_workers` threads
/// (0 = hardware concurrency). Pairs come out by receiver rank, then
/// receive position, for every worker count. Throws Error if any send or
/// receive remains unmatched (truncated or corrupt traces), sends first.
std::vector<MessagePair> match_messages(const TraceCollection& tc,
                                        std::size_t max_workers = 0);

}  // namespace metascope::tracing
