#include "tracing/matching.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/recorder.hpp"

namespace metascope::tracing {

namespace {

bool envelope_less(const MessageKey& a, const MessageKey& b) {
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

void sort_by_envelope(std::span<MessageKey> keys) {
  std::stable_sort(keys.begin(), keys.end(), envelope_less);
}

void join_messages(const RankKeys& sends, const RankKeys& recvs,
                   std::size_t max_workers, const PairFn& on_pair) {
  const std::size_t n = sends.size();
  MSC_CHECK(recvs.size() == n, "join_messages: send/receive rank mismatch");
  const std::array<const RankKeys*, 2> keys{&sends, &recvs};

  // Each run of one envelope, on either side, meets the peer's run on the
  // mirrored envelope. What a run has beyond its mirror is unmatched.
  std::array<std::vector<Leftover>, 2> leftover{std::vector<Leftover>(n),
                                                std::vector<Leftover>(n)};
  const auto join = [&](std::size_t r) {
    const auto me = static_cast<Rank>(r);
    for (const Side side : {kSend, kRecv}) {
      const std::span<const MessageKey> mine = (*keys[side])[r];
      for (auto a = mine.begin(), b = a; a != mine.end(); a = b) {
        b = std::find_if(a, mine.end(), [&](const MessageKey& k) {
          return envelope_less(*a, k);
        });
        const MessageKey& k = *a;
        std::span<const MessageKey> mirror;
        if (k.peer >= 0 && static_cast<std::size_t>(k.peer) < n) {
          const std::span<const MessageKey> theirs =
              (*keys[1 - side])[static_cast<std::size_t>(k.peer)];
          const auto [first, last] =
              std::equal_range(theirs.begin(), theirs.end(),
                               MessageKey{me, k.tag, k.comm, 0}, envelope_less);
          mirror = {first, last};
        }
        const auto run = static_cast<std::size_t>(b - a);
        if (side == kRecv)
          for (std::size_t j = 0; j < std::min(run, mirror.size()); ++j)
            on_pair(me, a[j].pos, k.peer, mirror[j].pos);
        if (run > mirror.size() && leftover[side][r].left == 0)
          leftover[side][r] = {
              side == kSend ? std::tuple(me, k.peer, k.tag, k.comm)
                            : std::tuple(k.peer, me, k.tag, k.comm),
              run - mirror.size()};
      }
    }
  };
  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(n));
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
}

std::vector<MessagePair> match_messages(const TraceCollection& tc,
                                        std::size_t max_workers) {
  const std::size_t n = tc.ranks.size();

  // One scan per rank: its Sends (pos: event index) and Recvs (pos:
  // receive position) as keys sorted by envelope, and the event index of
  // each receive position.
  std::vector<std::vector<MessageKey>> sends(n), recvs(n);
  std::vector<std::vector<std::uint32_t>> recv_index(n);
  const auto scan = [&](std::size_t r) {
    const EventVector& events = tc.ranks[r].events;
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.type == EventType::Send) {
        sends[r].push_back(MessageKey{e.peer, e.tag, e.comm.get(), i});
      } else if (e.type == EventType::Recv) {
        recvs[r].push_back(
            MessageKey{e.peer, e.tag, e.comm.get(),
                       static_cast<std::uint32_t>(recv_index[r].size())});
        recv_index[r].push_back(i);
      }
    }
    sort_by_envelope(sends[r]);
    sort_by_envelope(recvs[r]);
  };
  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(n));
  parallel_for(n, max_workers, scan, &rec_obs);

  std::vector<std::size_t> recv_begin(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r)
    recv_begin[r + 1] = recv_begin[r] + recv_index[r].size();
  // Rank r's k-th receive fills pair recv_begin[r] + k.
  std::vector<MessagePair> pairs(recv_begin[n]);
  join_messages(RankKeys(sends.begin(), sends.end()),
                RankKeys(recvs.begin(), recvs.end()), max_workers,
                [&](Rank receiver, std::uint32_t recv_pos, Rank sender,
                    std::uint32_t send_pos) {
                  const auto r = static_cast<std::size_t>(receiver);
                  pairs[recv_begin[r] + recv_pos] = MessagePair{
                      EventRef{sender, send_pos},
                      EventRef{receiver, recv_index[r][recv_pos]}};
                });
  return pairs;
}

}  // namespace metascope::tracing
