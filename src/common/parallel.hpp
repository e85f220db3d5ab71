// Bounded worker pools with work stealing, for per-rank fan-outs.
//
// Every per-rank stage of the pipeline — archive encode/decode and file
// I/O, clock correction, amortization, prepare, the message join and
// the streamed window pass — fans out here instead of staying a serial
// loop that Amdahl's law turns into the bottleneck at large rank
// counts.
//
//  - WorkerPool: a fixed pool of workers (hardware concurrency by
//    default) that runs n independent tasks. Each worker owns a deque
//    of tasks, dealt round-robin, and steals from the back of a peer's
//    deque when its own runs dry. No task waits for another and none is
//    added once the run starts, so a worker that finds every deque
//    empty is done.
//
//  - parallel_for: the same run with per-call stats. Runs inline when
//    one worker (or one item) is requested, so serial baselines pay no
//    threading cost.
//
//  - ordered_for: n items produced in parallel and consumed strictly in
//    order (encode on every worker, append to one file), through a
//    fixed ring of reusable slots.
//
// This layer is deliberately telemetry-free (common sits below
// telemetry in the library stack): the pool keeps exact counters and
// exposes its task lifecycle through an Observer, which
// telemetry::RecordingObserver streams into the flight recorder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace metascope {

/// Exact per-run counters, valid after run() returns (each worker writes
/// its own entries; the join publishes them).
struct PoolStats {
  std::size_t workers{0};  ///< pool size actually used
  std::size_t tasks{0};    ///< tasks run
  std::size_t steals{0};   ///< tasks taken from another worker's deque
  /// Tasks completed per worker (index = worker id); the load-balance
  /// figure stages feed into their per-stage worker histograms.
  std::vector<std::size_t> tasks_per_worker;
};

class WorkerPool {
 public:
  /// Lifecycle hooks a client may attach; every call arrives on the
  /// thread the event happened on, which is what lets an observer keep
  /// per-thread timelines, and must be thread-safe.
  class Observer {
   public:
    virtual ~Observer() = default;
    /// True if the pool should fire the hooks below; consulted once per
    /// run. This is the seam the telemetry flight recorder plugs into
    /// (telemetry::RecordingObserver) — off by default, so pools pay
    /// nothing unless a recording is requested.
    [[nodiscard]] virtual bool wants_events() const { return false; }
    /// Once per spawned worker thread, before it runs any task. Not
    /// fired for the inline (single-worker) parallel_for path, which
    /// stays on the caller's thread.
    virtual void on_worker_attach(std::size_t wid) { (void)wid; }
    /// A worker starts running `task`.
    virtual void on_task_begin(std::size_t task) { (void)task; }
    /// `task` returned. Not fired when it threw (the pool is tearing
    /// down).
    virtual void on_task_end(std::size_t task) { (void)task; }
    /// This thread stole `task` from another worker's deque.
    virtual void on_task_steal(std::size_t task) { (void)task; }
  };

  /// `max_workers` == 0 selects std::thread::hardware_concurrency();
  /// the pool never exceeds the task count.
  WorkerPool(std::size_t num_tasks, std::size_t max_workers = 0);

  /// Worker count run() will use for `num_tasks` under `max_workers`
  /// (0 = hardware concurrency), without constructing a pool.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t num_tasks,
                                                   std::size_t max_workers);

  using TaskFn = std::function<void(std::size_t task)>;

  /// Attach before run(); the pool never owns the observer.
  void set_observer(Observer* obs) { obs_ = obs; }

  /// Runs task(t) once for every t in [0, num_tasks) on the pool's
  /// workers. The first exception a task throws stops every worker at
  /// its next claim and is rethrown after the join.
  void run(const TaskFn& task);

  [[nodiscard]] const PoolStats& stats() const { return stats_; }

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<std::size_t> dq;
  };

  void worker_loop(std::size_t wid, const TaskFn& task);
  bool pop_local(std::size_t wid, std::size_t& task);
  bool steal(std::size_t wid, std::size_t& task);

  std::size_t num_tasks_;
  std::size_t num_workers_;
  std::vector<WorkerQueue> queues_;
  std::atomic<bool> stop_{false};
  std::mutex err_m_;
  std::exception_ptr first_error_;
  Observer* obs_{nullptr};
  bool events_{false};  ///< obs_ wants the lifecycle hooks (fixed per run)
  std::vector<std::size_t> steals_by_worker_;

  PoolStats stats_;
};

/// Per-call summary of a parallel_for, for the caller's telemetry.
struct ParallelForStats {
  std::size_t workers{0};
  std::size_t items{0};
  std::size_t steals{0};
  std::vector<std::size_t> items_per_worker;
};

/// Runs body(i) for every i in [0, n) on a bounded work-stealing pool.
/// `max_workers` == 0 selects hardware concurrency; 1 (or n <= 1) runs
/// inline on the calling thread with no threads spawned. The first
/// exception a body throws is rethrown after all workers stop. Bodies
/// for distinct items must be independent (the usual use is one item
/// per rank writing its own slot), which is what makes results
/// deterministic for every worker count.
///
/// `obs` (optional, never owned) receives the pool's observer hooks;
/// stages pass a telemetry::RecordingObserver so their per-item fan-out
/// shows up on the flight-recorder timeline. The inline path fires the
/// task begin/end hooks on the calling thread (without worker attach),
/// so single-worker runs record the same per-item events.
ParallelForStats parallel_for(std::size_t n, std::size_t max_workers,
                              const std::function<void(std::size_t)>& body,
                              WorkerPool::Observer* obs = nullptr);

/// Ring slots ordered_for cycles through for `n` items under
/// `max_workers` (0 = hardware concurrency): two per worker, at most n.
[[nodiscard]] std::size_t ordered_for_slots(std::size_t n,
                                            std::size_t max_workers);

/// Runs produce(i, slot) for every i in [0, n) on up to `max_workers`
/// threads and consume(i, slot) for every i in ascending order, one
/// call at a time. Item i owns slot i % ordered_for_slots(n,
/// max_workers) from its produce to its consume, so the caller keeps
/// one reusable buffer per slot and at most that many items are ever
/// resident. Workers claim items in ascending order; a claim waits
/// while its slot still holds an unconsumed item, and whichever thread
/// finishes the lowest unconsumed item consumes it and every produced
/// successor. The calling thread is one of the workers, so one worker
/// (or one item) runs inline with no thread started. The first
/// exception produce or consume throws stops every worker at its next
/// claim or slot wait (nothing is consumed after it) and is rethrown
/// after the join.
///
/// `obs` receives worker-attach hooks for the started threads and task
/// begin/end around each produce, as for parallel_for.
ParallelForStats ordered_for(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t item, std::size_t slot)>& produce,
    const std::function<void(std::size_t item, std::size_t slot)>& consume,
    WorkerPool::Observer* obs = nullptr);

}  // namespace metascope
