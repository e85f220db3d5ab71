#include "common/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

namespace metascope {

namespace {

// Per-task lifecycle. Parked tasks are owned by the resource they wait
// on; the Running<->Notified leg absorbs a resume() that lands while the
// suspending step is still unwinding on its worker.
constexpr int kRunning = 0;
constexpr int kParked = 1;
constexpr int kNotified = 2;

// Worker index of the current thread, so tasks resumed from inside a
// step land on the resuming worker's own deque (cheap, cache-friendly);
// other workers steal them if the owner stays busy.
thread_local std::size_t tls_worker = 0;

// The *expensive* observer hooks (clock reads for the runtime sample,
// queue-depth reads) are sampled one-in-16 per thread; at thousands of
// task steps the distributions stay representative while the hot path
// holds the replay bench's <=5% telemetry-overhead budget.
constexpr std::size_t kSampleStride = 16;
thread_local std::size_t tls_sample = 0;

inline bool sample_tick() { return tls_sample++ % kSampleStride == 0; }

// Behaviour counters batch into plain per-thread tallies and merge into
// the pool's totals once, when the worker exits — the hot path pays a
// non-atomic increment instead of a shared atomic per event. Exactness
// is preserved: workers flush before run() joins them, so the post-join
// stats see every increment.
struct LocalTally {
  std::uint64_t suspensions{0};
  std::uint64_t steals{0};
  std::uint64_t requeues{0};
};
thread_local LocalTally tls_tally;

}  // namespace

DeadlockError::DeadlockError(std::size_t stuck, std::size_t total)
    : Error("worker pool deadlocked: " + std::to_string(stuck) + " of " +
            std::to_string(total) +
            " tasks suspended with no runnable peer"),
      stuck_(stuck),
      total_(total) {}

std::size_t WorkerPool::resolve_workers(std::size_t num_tasks,
                                        std::size_t max_workers) {
  return std::min(
      num_tasks == 0 ? std::size_t{1} : num_tasks,
      max_workers != 0
          ? max_workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

WorkerPool::WorkerPool(std::size_t num_tasks, std::size_t max_workers)
    : num_tasks_(num_tasks),
      num_workers_(resolve_workers(num_tasks, max_workers)),
      queues_(num_workers_),
      state_(new std::atomic<int>[num_tasks == 0 ? 1 : num_tasks]),
      tasks_by_worker_(num_workers_, 0) {
  for (std::size_t t = 0; t < num_tasks_; ++t)
    state_[t].store(kRunning, std::memory_order_relaxed);
  stats_.workers = num_workers_;
  stats_.tasks = num_tasks_;
}

void WorkerPool::push(std::size_t wid, std::size_t task, bool next) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(queues_[wid].m);
    if (next)
      queues_[wid].dq.push_front(task);
    else
      queues_[wid].dq.push_back(task);
    depth = queues_[wid].dq.size();
  }
  if (sample_ && sample_tick())
    obs_->on_queue_depth(static_cast<double>(depth));
  idle_cv_.notify_one();
}

bool WorkerPool::pop_local(std::size_t wid, std::size_t& task) {
  std::lock_guard<std::mutex> lock(queues_[wid].m);
  if (queues_[wid].dq.empty()) return false;
  task = queues_[wid].dq.front();
  queues_[wid].dq.pop_front();
  return true;
}

bool WorkerPool::steal(std::size_t wid, std::size_t& task) {
  for (std::size_t k = 1; k < num_workers_; ++k) {
    WorkerQueue& victim = queues_[(wid + k) % num_workers_];
    std::lock_guard<std::mutex> lock(victim.m);
    if (victim.dq.empty()) continue;
    // Steal from the back: the front is the victim's warmest work.
    task = victim.dq.back();
    victim.dq.pop_back();
    tls_tally.steals += 1;
    if (events_) obs_->on_task_steal(task);
    return true;
  }
  return false;
}

void WorkerPool::fail(std::exception_ptr err) {
  {
    std::lock_guard<std::mutex> lock(err_m_);
    if (!first_error_) first_error_ = err;
  }
  stop_.store(true);
  idle_cv_.notify_all();
}

void WorkerPool::resume(std::size_t task) {
  if (events_) obs_->on_task_resume(task);
  for (;;) {
    int s = state_[task].load();
    if (s == kParked) {
      if (state_[task].compare_exchange_strong(s, kRunning)) {
        inflight_.fetch_add(1);
        tls_tally.requeues += 1;
        // The resource it waited on was just produced on this worker, so
        // the task runs next while that data is still in cache; thieves
        // take from the other end of the deque.
        push(tls_worker, task, /*next=*/true);
        return;
      }
    } else if (s == kRunning) {
      // The task is still unwinding from the step that registered the
      // wait; leave a note for its worker to requeue it.
      if (state_[task].compare_exchange_strong(s, kNotified)) return;
    } else {
      return;  // already notified
    }
  }
}

void WorkerPool::run_task(std::size_t task, const StepFn& step) {
  // Step-runtime sample: two clock reads per sampled step (a step runs a
  // task until it finishes or suspends, so this is coarse), skipped
  // entirely when no observer asked for samples.
  const bool timed = sample_ && sample_tick();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  if (events_) obs_->on_task_begin(task);
  StepOutcome r;
  try {
    r = step(task);
  } catch (...) {
    fail(std::current_exception());
    return;
  }
  if (timed) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    obs_->on_task_runtime_us(us);
  }
  if (events_) obs_->on_task_end(task, r == StepOutcome::Suspend);
  if (r == StepOutcome::Done) {
    tasks_by_worker_[tls_worker] += 1;
    const std::size_t done = done_.fetch_add(1) + 1;
    inflight_.fetch_sub(1);
    if (obs_) obs_->on_task_done(done, num_tasks_);
    if (done_.load() == num_tasks_) idle_cv_.notify_all();
    return;
  }
  tls_tally.suspensions += 1;
  int expected = kRunning;
  if (state_[task].compare_exchange_strong(expected, kParked)) {
    inflight_.fetch_sub(1);
  } else {
    // resume() beat us to it (state is Notified): the wait is already
    // satisfied, so the task goes straight back to our deque.
    state_[task].store(kRunning);
    tls_tally.requeues += 1;
    push(tls_worker, task);
  }
}

void WorkerPool::flush_tally() {
  LocalTally& t = tls_tally;
  {
    std::lock_guard<std::mutex> lock(tally_m_);
    total_suspensions_ += t.suspensions;
    total_steals_ += t.steals;
    total_requeues_ += t.requeues;
  }
  t = LocalTally{};
}

void WorkerPool::worker_loop(std::size_t wid, const StepFn& step) {
  tls_worker = wid;
  if (events_) obs_->on_worker_attach(wid);
  // Flush the thread's tally on every exit path of the loop.
  struct Flusher {
    WorkerPool* p;
    ~Flusher() { p->flush_tally(); }
  } flusher{this};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    std::size_t task;
    if (pop_local(wid, task) || steal(wid, task)) {
      run_task(task, step);
      continue;
    }
    if (done_.load() == num_tasks_) return;
    if (inflight_.load() == 0) {
      // Re-check completion: the final Done increments done_ before
      // inflight_, so a zero inflight_ with done_ short of the total
      // means the remaining tasks are parked with no runner left to
      // ever wake them.
      if (done_.load() == num_tasks_) return;
      deadlock_.store(true);
      stop_.store(true);
      idle_cv_.notify_all();
      return;
    }
    // Another worker holds runnable work (or a resume is in flight);
    // doze until pushed work notifies us. The timeout makes the loop
    // robust against the notify racing our wait.
    std::unique_lock<std::mutex> lock(idle_m_);
    idle_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void WorkerPool::run(const StepFn& step) {
  if (num_tasks_ == 0) return;
  sample_ = obs_ != nullptr && obs_->wants_samples();
  events_ = obs_ != nullptr && obs_->wants_events();
  inflight_.store(num_tasks_);
  for (std::size_t t = 0; t < num_tasks_; ++t) push(t % num_workers_, t);

  std::vector<std::thread> pool;
  pool.reserve(num_workers_);
  for (std::size_t w = 0; w < num_workers_; ++w)
    pool.emplace_back([this, w, &step] { worker_loop(w, step); });
  for (auto& t : pool) t.join();

  stats_.suspensions = total_suspensions_;
  stats_.steals = total_steals_;
  stats_.requeues = total_requeues_;
  stats_.tasks_per_worker = tasks_by_worker_;

  if (first_error_) std::rethrow_exception(first_error_);
  if (deadlock_.load())
    throw DeadlockError(num_tasks_ - done_.load(), num_tasks_);
}

ParallelForStats parallel_for(std::size_t n, std::size_t max_workers,
                              const std::function<void(std::size_t)>& body,
                              WorkerPool::Observer* obs) {
  ParallelForStats st;
  st.items = n;
  if (n == 0) return st;
  const std::size_t workers = WorkerPool::resolve_workers(n, max_workers);
  if (workers <= 1 || n == 1) {
    // Inline path fires the item events on the calling thread (no
    // worker attach — the caller keeps its own thread label).
    const bool events = obs != nullptr && obs->wants_events();
    for (std::size_t i = 0; i < n; ++i) {
      if (events) obs->on_task_begin(i);
      body(i);
      if (events) obs->on_task_end(i, false);
    }
    st.workers = 1;
    st.items_per_worker.assign(1, n);
    return st;
  }
  WorkerPool pool(n, workers);
  pool.set_observer(obs);
  pool.run([&body](std::size_t i) {
    body(i);
    return StepOutcome::Done;
  });
  st.workers = pool.stats().workers;
  st.steals = pool.stats().steals;
  st.items_per_worker = pool.stats().tasks_per_worker;
  return st;
}

}  // namespace metascope
