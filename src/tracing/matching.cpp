#include "tracing/matching.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/recorder.hpp"

namespace metascope::tracing {

namespace {

/// A Send or Recv as its own rank sees it: the envelope (peer, tag,
/// communicator) and `pos` — a Send's event index, a Recv's receive
/// position.
struct Key {
  Rank peer;
  int tag;
  int comm;
  std::uint32_t pos;
};

bool envelope_less(const Key& a, const Key& b) {
  if (a.peer != b.peer) return a.peer < b.peer;
  if (a.tag != b.tag) return a.tag < b.tag;
  return a.comm < b.comm;
}

/// The lowest (source, destination, tag, communicator) envelope a rank
/// left unmatched on one side, and how many events it left there.
struct Leftover {
  std::tuple<Rank, Rank, int, int> envelope;
  std::size_t left{0};
};

enum Side { kSend, kRecv };

}  // namespace

std::vector<MessagePair> match_messages(const TraceCollection& tc,
                                        std::size_t max_workers) {
  const std::size_t n = tc.ranks.size();
  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(n));

  // One scan per rank: its Sends and Recvs as keys sorted by envelope,
  // and the event index of each receive position.
  std::array<std::vector<std::vector<Key>>, 2> keys{
      std::vector<std::vector<Key>>(n), std::vector<std::vector<Key>>(n)};
  std::vector<std::vector<std::uint32_t>> recv_index(n);
  const auto scan = [&](std::size_t r) {
    const EventVector& events = tc.ranks[r].events;
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.type != EventType::Send && e.type != EventType::Recv) continue;
      const Side side = e.type == EventType::Send ? kSend : kRecv;
      const auto pos = side == kSend ? i : recv_index[r].size();
      keys[side][r].push_back(
          Key{e.peer, e.tag, e.comm.get(), static_cast<std::uint32_t>(pos)});
      if (side == kRecv) recv_index[r].push_back(i);
    }
    // Stable, so each envelope keeps program order.
    for (auto& side : keys)
      std::stable_sort(side[r].begin(), side[r].end(), envelope_less);
  };
  parallel_for(n, max_workers, scan, &rec_obs);

  std::vector<std::size_t> recv_begin(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r)
    recv_begin[r + 1] = recv_begin[r] + recv_index[r].size();
  std::vector<MessagePair> pairs(recv_begin[n]);

  // The join, one rank per task. Each run of one envelope, on either
  // side, meets the peer's run on the mirrored envelope: the j-th
  // receive takes the j-th send, and rank r's k-th receive fills pair
  // recv_begin[r] + k. What a run has beyond its mirror is unmatched.
  std::array<std::vector<Leftover>, 2> leftover{std::vector<Leftover>(n),
                                                std::vector<Leftover>(n)};
  const auto join = [&](std::size_t r) {
    const auto me = static_cast<Rank>(r);
    for (const Side side : {kSend, kRecv}) {
      const std::vector<Key>& mine = keys[side][r];
      for (auto a = mine.begin(), b = a; a != mine.end(); a = b) {
        b = std::find_if(a, mine.end(),
                         [&](const Key& k) { return envelope_less(*a, k); });
        const Key& k = *a;
        std::span<const Key> mirror;
        if (k.peer >= 0 && static_cast<std::size_t>(k.peer) < n) {
          const auto& theirs =
              keys[1 - side][static_cast<std::size_t>(k.peer)];
          const auto [first, last] =
              std::equal_range(theirs.begin(), theirs.end(),
                               Key{me, k.tag, k.comm, 0}, envelope_less);
          mirror = {first, last};
        }
        const auto run = static_cast<std::size_t>(b - a);
        const std::size_t matched =
            side == kRecv ? std::min(run, mirror.size()) : 0;
        for (std::size_t j = 0; j < matched; ++j)
          pairs[recv_begin[r] + a[j].pos] =
              MessagePair{EventRef{k.peer, mirror[j].pos},
                          EventRef{me, recv_index[r][a[j].pos]}};
        if (run > mirror.size() && leftover[side][r].left == 0)
          leftover[side][r] = {
              side == kSend ? std::tuple(me, k.peer, k.tag, k.comm)
                            : std::tuple(k.peer, me, k.tag, k.comm),
              run - mirror.size()};
      }
    }
  };
  parallel_for(n, max_workers, join, &rec_obs);

  // Unmatched sends before unmatched receives, each the lowest envelope.
  for (const Side side : {kSend, kRecv}) {
    const auto it = std::min_element(
        leftover[side].begin(), leftover[side].end(),
        [](const Leftover& a, const Leftover& b) {
          return std::pair(a.left == 0, a.envelope) <
                 std::pair(b.left == 0, b.envelope);
        });
    if (it == leftover[side].end() || it->left == 0) continue;
    const auto& [src, dst, tag, comm] = it->envelope;
    const char* what = side == kSend ? "unmatched SEND " : "unmatched RECV ";
    throw Error(what + std::to_string(src) + " -> " + std::to_string(dst) +
                " tag " + std::to_string(tag) + " (" +
                std::to_string(it->left) + " left)");
  }
  return pairs;
}

}  // namespace metascope::tracing
