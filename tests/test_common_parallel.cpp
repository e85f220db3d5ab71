#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace metascope {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{7}}) {
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const auto st = parallel_for(
        n, workers, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(st.items, n);
    EXPECT_GE(st.workers, 1u);
    EXPECT_EQ(std::accumulate(st.items_per_worker.begin(),
                              st.items_per_worker.end(), std::size_t{0}),
              n);
  }
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder) {
  std::vector<std::size_t> order;
  const auto st =
      parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(st.workers, 1u);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  const auto st =
      parallel_for(0, 4, [&](std::size_t) { FAIL() << "body called"; });
  EXPECT_EQ(st.items, 0u);
}

TEST(ParallelFor, BodyExceptionPropagates) {
  EXPECT_THROW(parallel_for(16, 4,
                            [&](std::size_t i) {
                              if (i == 7) throw Error("boom");
                            }),
               Error);
  // Inline path too.
  EXPECT_THROW(parallel_for(16, 1,
                            [&](std::size_t i) {
                              if (i == 7) throw Error("boom");
                            }),
               Error);
}

TEST(ParallelFor, DisjointSlotWritesAreDeterministic) {
  const std::size_t n = 64;
  std::vector<std::vector<double>> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    std::vector<double> out(n, 0.0);
    parallel_for(n, workers, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += static_cast<double>(k) * 0.5;
      out[i] = acc;
    });
    runs.push_back(std::move(out));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(OrderedFor, ConsumesInOrderThroughTheRing) {
  // Uneven produce costs make later items finish first; consume must
  // still see 0, 1, 2, ... with each slot holding what its item wrote.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::size_t n = 200;
    const std::size_t slots = ordered_for_slots(n, workers);
    EXPECT_EQ(slots, std::min(n, 2 * workers));
    std::vector<std::size_t> ring(slots, n);
    std::vector<std::size_t> order;
    const auto st = ordered_for(
        n, workers,
        [&](std::size_t i, std::size_t slot) {
          EXPECT_EQ(slot, i % slots);
          EXPECT_EQ(ring[slot], n) << "slot reused before its consume";
          volatile double spin = 0.0;
          for (std::size_t k = 0; k < (i % 7 == 0 ? 20000u : 10u); ++k)
            spin = spin + 1.0;
          ring[slot] = i;
        },
        [&](std::size_t i, std::size_t slot) {
          EXPECT_EQ(ring[slot], i);
          ring[slot] = n;
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(st.items, n);
    EXPECT_EQ(st.workers, workers);
    EXPECT_EQ(std::accumulate(st.items_per_worker.begin(),
                              st.items_per_worker.end(), std::size_t{0}),
              n);
  }
}

TEST(OrderedFor, FirstErrorStopsEveryWorker) {
  // Item 37 fails slowly, so the other workers run ahead and block on
  // slots that item 37's failure will never free: the error must wake
  // them. A run that has not returned within a minute aborts.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const bool in_consume : {false, true}) {
      std::atomic<std::size_t> consumed{0};
      const auto fail_slowly = [](const char* what) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw Error(what);
      };
      auto run = std::async(std::launch::async, [&] {
        (void)ordered_for(
            1000, workers,
            [&](std::size_t i, std::size_t) {
              if (!in_consume && i == 37) fail_slowly("produce failed");
            },
            [&](std::size_t i, std::size_t) {
              if (in_consume && i == 37) fail_slowly("consume failed");
              consumed.fetch_add(1);
            });
      });
      if (run.wait_for(std::chrono::minutes(1)) !=
          std::future_status::ready) {
        std::fprintf(stderr, "ordered_for hung at %zu workers\n", workers);
        std::abort();
      }
      try {
        run.get();
        FAIL() << "no error at " << workers << " workers";
      } catch (const Error& e) {
        EXPECT_NE(
            std::string(e.what()).find(in_consume ? "consume" : "produce"),
            std::string::npos);
      }
      // Nothing at or past the failed item is consumed.
      EXPECT_LE(consumed.load(), 37u);
    }
  }
}

TEST(OrderedFor, ZeroItemsIsANoop) {
  const auto st = ordered_for(
      0, 4, [&](std::size_t, std::size_t) { FAIL() << "produce called"; },
      [&](std::size_t, std::size_t) { FAIL() << "consume called"; });
  EXPECT_EQ(st.items, 0u);
}

TEST(WorkerPool, ResolveWorkersClampsToTasksAndFloor) {
  EXPECT_EQ(WorkerPool::resolve_workers(3, 8), 3u);
  EXPECT_EQ(WorkerPool::resolve_workers(100, 4), 4u);
  EXPECT_GE(WorkerPool::resolve_workers(100, 0), 1u);
  EXPECT_EQ(WorkerPool::resolve_workers(0, 4), 1u);
}

}  // namespace
}  // namespace metascope
