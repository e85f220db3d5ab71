// Reusable bounded worker pool with work stealing and resumable tasks.
//
// Extracted from the replay scheduler (analysis/replay_scheduler) so the
// whole pre-replay pipeline — archive encode/decode and file I/O, clock
// correction, amortization, prepare — can fan out per-rank work on the
// same machinery the parallel replay uses, instead of each stage staying
// a serial loop that Amdahl's law turns into the bottleneck at large
// rank counts.
//
// Two entry points:
//
//  - WorkerPool: the full resumable-task scheduler. Each task's step
//    function either finishes (Done) or *suspends* (returns control to
//    the pool after registering with the awaited resource); the task
//    that satisfies the resource calls resume(). A fixed pool of
//    workers — hardware concurrency by default — drives all tasks, each
//    worker owning a deque of runnable tasks and stealing from its
//    peers when it runs dry. A resumed task goes to the front of the
//    resuming worker's deque and runs next, while the data that woke it
//    is still in cache; thieves steal from the back, where the coldest
//    tasks wait. The suspend/resume race is resolved with a
//    per-task Running/Parked/Notified state machine, so a wakeup is
//    never lost and a task never runs on two workers at once. If every
//    unfinished task is parked, the pool throws DeadlockError instead
//    of hanging.
//
//  - parallel_for: the embarrassingly parallel special case — n
//    independent items, none of which ever suspends. Runs inline when
//    one worker (or one item) is requested, so serial baselines pay no
//    threading cost.
//
// This layer is deliberately telemetry-free (common sits below
// telemetry in the library stack): the pool keeps *exact* internal
// counters (merged from per-thread tallies when workers exit) and
// exposes sampled timing hooks through an Observer, which clients like
// the replay scheduler wire into the metrics registry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace metascope {

enum class StepOutcome {
  Done,     ///< the task finished all of its work
  Suspend,  ///< the task registered with a resource and yields its worker
};

/// Thrown by WorkerPool::run when no unfinished task is runnable and no
/// running task remains to ever resume one.
class DeadlockError : public Error {
 public:
  DeadlockError(std::size_t stuck, std::size_t total);

  [[nodiscard]] std::size_t stuck_tasks() const { return stuck_; }
  [[nodiscard]] std::size_t total_tasks() const { return total_; }

 private:
  std::size_t stuck_;
  std::size_t total_;
};

/// Exact per-run behaviour counters, valid after run() returns (merged
/// from per-thread tallies under the join barrier, so they are exact
/// regardless of telemetry state).
struct PoolStats {
  std::size_t workers{0};      ///< pool size actually used
  std::size_t tasks{0};        ///< tasks driven to completion
  std::size_t suspensions{0};  ///< times a step returned Suspend
  std::size_t steals{0};       ///< tasks taken from another worker's deque
  std::size_t requeues{0};     ///< tasks re-enqueued after a resume
  /// Tasks completed per worker (index = worker id); the load-balance
  /// figure stages feed into their per-stage worker histograms.
  std::vector<std::size_t> tasks_per_worker;
};

class WorkerPool {
 public:
  /// Sampled/stateful hooks a client may attach; all callbacks arrive on
  /// worker threads and must be thread-safe.
  class Observer {
   public:
    virtual ~Observer() = default;
    /// True if the pool should pay for the sampled timing hooks
    /// (on_task_runtime_us / on_queue_depth); consulted once per run().
    [[nodiscard]] virtual bool wants_samples() const { return false; }
    /// True if the pool should fire the per-event lifecycle hooks below
    /// (worker attach, task begin/end/resume/steal); consulted once per
    /// run(). This is the seam the telemetry flight recorder plugs into
    /// (telemetry::RecordingObserver) — off by default, so pools pay
    /// nothing unless a recording is requested.
    [[nodiscard]] virtual bool wants_events() const { return false; }
    /// Called on every task completion with the running done count.
    virtual void on_task_done(std::size_t done, std::size_t total) {
      (void)done;
      (void)total;
    }
    /// One-in-16 sampled step wall time, microseconds.
    virtual void on_task_runtime_us(double us) { (void)us; }
    /// One-in-16 sampled run-queue depth after a push.
    virtual void on_queue_depth(double depth) { (void)depth; }

    // Lifecycle hooks, fired only when wants_events() — every call
    // arrives on the thread the event happened on, which is what lets
    // an observer keep per-thread timelines.
    /// Once per spawned worker thread, before it runs any task. Not
    /// fired for the inline (single-worker) parallel_for path, which
    /// stays on the caller's thread.
    virtual void on_worker_attach(std::size_t wid) { (void)wid; }
    /// A worker starts driving `task` (first run or after a resume).
    virtual void on_task_begin(std::size_t task) { (void)task; }
    /// The step returned; `suspended` distinguishes Suspend from Done.
    /// Not fired when the step threw (the pool is tearing down).
    virtual void on_task_end(std::size_t task, bool suspended) {
      (void)task;
      (void)suspended;
    }
    /// This thread marked suspended `task` runnable again.
    virtual void on_task_resume(std::size_t task) { (void)task; }
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

  using StepFn = std::function<StepOutcome(std::size_t task)>;

  /// Attach before run(); the pool never owns the observer.
  void set_observer(Observer* obs) { obs_ = obs; }

  /// Drives every task to Done. `step(t)` advances task t until it
  /// finishes or suspends; a suspending step must arrange for resume(t)
  /// to be called by whichever task satisfies the awaited resource.
  /// Throws DeadlockError if all unfinished tasks are suspended with
  /// nothing left running, and rethrows the first exception any step
  /// raised.
  void run(const StepFn& step);

  /// Marks a suspended task runnable; it runs next on the calling
  /// worker. Must be called from inside a running step (i.e. on a worker
  /// thread). Safe against the suspend/resume race; at most one resume
  /// may be issued per suspension.
  void resume(std::size_t task);

  [[nodiscard]] const PoolStats& stats() const { return stats_; }

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<std::size_t> dq;
  };

  void worker_loop(std::size_t wid, const StepFn& step);
  void run_task(std::size_t task, const StepFn& step);
  /// Queues `task` on worker `wid`: at the back, or at the front (to run
  /// next) when `next` is set.
  void push(std::size_t wid, std::size_t task, bool next = false);
  bool pop_local(std::size_t wid, std::size_t& task);
  bool steal(std::size_t wid, std::size_t& task);
  void fail(std::exception_ptr err);
  /// Adds the calling thread's batched tally into the pool counters.
  void flush_tally();

  std::size_t num_tasks_;
  std::size_t num_workers_;
  std::vector<WorkerQueue> queues_;
  std::unique_ptr<std::atomic<int>[]> state_;

  std::atomic<std::size_t> done_{0};
  /// Tasks queued or currently running (not parked). When this reaches
  /// zero with done_ < num_tasks_, the run has deadlocked.
  std::atomic<std::size_t> inflight_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> deadlock_{false};

  std::mutex idle_m_;
  std::condition_variable idle_cv_;

  std::mutex err_m_;
  std::exception_ptr first_error_;

  Observer* obs_{nullptr};
  bool sample_{false};  ///< obs_ wants the sampled hooks (fixed per run)
  bool events_{false};  ///< obs_ wants the lifecycle hooks (fixed per run)

  // Per-thread tallies flush into these under tally_m_ when a worker
  // exits; stats_ is assembled after the join, so reads are race-free.
  std::mutex tally_m_;
  std::uint64_t total_suspensions_{0};
  std::uint64_t total_steals_{0};
  std::uint64_t total_requeues_{0};
  std::vector<std::size_t> tasks_by_worker_;

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

}  // namespace metascope
