#include "common/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <thread>

namespace metascope {

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
      steals_by_worker_(num_workers_, 0) {
  stats_.workers = num_workers_;
  stats_.tasks = num_tasks_;
  stats_.tasks_per_worker.assign(num_workers_, 0);
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
    // Steal from the back: the front is what the victim runs next.
    task = victim.dq.back();
    victim.dq.pop_back();
    steals_by_worker_[wid] += 1;
    if (events_) obs_->on_task_steal(task);
    return true;
  }
  return false;
}

void WorkerPool::worker_loop(std::size_t wid, const TaskFn& task) {
  if (events_) obs_->on_worker_attach(wid);
  std::size_t t;
  while (!stop_.load(std::memory_order_acquire) &&
         (pop_local(wid, t) || steal(wid, t))) {
    if (events_) obs_->on_task_begin(t);
    try {
      task(t);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(err_m_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      stop_.store(true, std::memory_order_release);
      return;
    }
    if (events_) obs_->on_task_end(t);
    stats_.tasks_per_worker[wid] += 1;
  }
}

void WorkerPool::run(const TaskFn& task) {
  if (num_tasks_ == 0) return;
  events_ = obs_ != nullptr && obs_->wants_events();
  for (std::size_t t = 0; t < num_tasks_; ++t)
    queues_[t % num_workers_].dq.push_back(t);

  std::vector<std::thread> pool;
  pool.reserve(num_workers_);
  for (std::size_t w = 0; w < num_workers_; ++w)
    pool.emplace_back([this, w, &task] { worker_loop(w, task); });
  for (auto& t : pool) t.join();

  for (const std::size_t s : steals_by_worker_) stats_.steals += s;
  if (first_error_) std::rethrow_exception(first_error_);
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
      if (events) obs->on_task_end(i);
    }
    st.workers = 1;
    st.items_per_worker.assign(1, n);
    return st;
  }
  WorkerPool pool(n, workers);
  pool.set_observer(obs);
  pool.run(body);
  st.workers = pool.stats().workers;
  st.steals = pool.stats().steals;
  st.items_per_worker = pool.stats().tasks_per_worker;
  return st;
}

std::size_t ordered_for_slots(std::size_t n, std::size_t max_workers) {
  return std::min(n == 0 ? std::size_t{1} : n,
                  2 * WorkerPool::resolve_workers(n, max_workers));
}

namespace {

/// Shared state of one ordered_for run; every field is guarded by `m`.
/// `ready[s]` marks slot s produced but not yet consumed, and `consuming`
/// is the token of the one thread that consumes at a time.
struct OrderedRun {
  using ItemFn = std::function<void(std::size_t, std::size_t)>;

  OrderedRun(std::size_t n_, std::size_t slots_, const ItemFn& produce_,
             const ItemFn& consume_, WorkerPool::Observer* obs_)
      : n(n_),
        slots(slots_),
        produce(produce_),
        consume(consume_),
        obs(obs_),
        ready(slots_, 0) {}

  std::size_t n;
  std::size_t slots;
  const ItemFn& produce;
  const ItemFn& consume;
  WorkerPool::Observer* obs;  // nullptr unless it wants events

  std::mutex m;
  std::condition_variable slot_free;  // consumed advanced, or a failure
  std::size_t next_claim{0};
  std::size_t consumed{0};
  std::vector<char> ready;
  bool consuming{false};
  std::exception_ptr error;

  void fail(std::exception_ptr e) {
    if (!error) error = std::move(e);
    slot_free.notify_all();
  }

  /// Claims, produces and (holding the token) consumes until every item
  /// is claimed or a call failed. Returns the items this thread
  /// produced.
  std::size_t work() {
    std::size_t produced = 0;
    std::unique_lock<std::mutex> lock(m);
    while (!error && next_claim < n) {
      const std::size_t i = next_claim++;
      const std::size_t s = i % slots;
      slot_free.wait(lock, [&] { return error || consumed + slots > i; });
      if (error) break;
      lock.unlock();
      try {
        if (obs) obs->on_task_begin(i);
        produce(i, s);
        if (obs) obs->on_task_end(i);
      } catch (...) {
        lock.lock();
        fail(std::current_exception());
        break;
      }
      ++produced;
      lock.lock();
      ready[s] = 1;
      if (consuming) continue;  // the token holder will reach item i
      consuming = true;
      while (!error && consumed < n && ready[consumed % slots]) {
        const std::size_t j = consumed;
        lock.unlock();
        try {
          consume(j, j % slots);
        } catch (...) {
          lock.lock();
          fail(std::current_exception());
          break;
        }
        lock.lock();
        ready[j % slots] = 0;
        ++consumed;
        slot_free.notify_all();
      }
      consuming = false;
    }
    return produced;
  }
};

}  // namespace

ParallelForStats ordered_for(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& produce,
    const std::function<void(std::size_t, std::size_t)>& consume,
    WorkerPool::Observer* obs) {
  ParallelForStats st;
  st.items = n;
  if (n == 0) return st;
  const std::size_t workers = WorkerPool::resolve_workers(n, max_workers);
  OrderedRun run(n, ordered_for_slots(n, max_workers), produce, consume,
                 obs != nullptr && obs->wants_events() ? obs : nullptr);
  st.workers = workers;
  st.items_per_worker.assign(workers, 0);

  // Worker 0 is the calling thread. Nothing escapes a worker: a failure
  // is recorded for the rethrow after the join.
  const auto worker = [&run, &st](std::size_t w) {
    try {
      if (w != 0 && run.obs) run.obs->on_worker_attach(w);
      st.items_per_worker[w] = run.work();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(run.m);
      run.fail(std::current_exception());
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(run.m);
    run.fail(std::current_exception());
  }
  worker(0);
  for (auto& t : threads) t.join();
  if (run.error) std::rethrow_exception(run.error);
  return st;
}

}  // namespace metascope
