// Pipeline-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, addressable by dotted name ("replay.bytes").
//
// Hot-path discipline: pool workers increment counters from every rank
// task, so an increment must never contend on a lock or even a shared
// cache line. Counters (and histogram buckets) are therefore *sharded*:
// each holds a small array of cache-line-padded atomic cells, a thread
// adds into its own cell with a relaxed fetch_add, and the cells are
// merged only when a snapshot is taken. Registration (name -> handle) is
// mutex-guarded but happens once per call site; call sites cache the
// returned reference (handles are stable for the process lifetime).
//
// Recording can be disabled at runtime via set_enabled(false): every
// record call becomes a relaxed-load-and-return (what
// `bench_replay_scaling` compares against to bound the telemetry
// overhead).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace metascope {
struct ParallelForStats;  // common/parallel.hpp
}

namespace metascope::telemetry {

namespace detail {

/// Number of counter cells per metric. Sixteen cache lines bounds the
/// per-counter footprint at 1 KiB while keeping same-cell collisions
/// rare for any plausible worker count.
constexpr std::size_t kShards = 16;

extern std::atomic<bool> g_enabled;

/// Stable small id for the calling thread, assigned on first use.
std::size_t assign_shard();

inline std::size_t shard_index() {
  thread_local const std::size_t idx = assign_shard();
  return idx;
}

struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) DoubleCell {
  std::atomic<double> v{0.0};
};

}  // namespace detail

/// Global recording switch (default on). Disabling stops all counters,
/// gauges, histograms, and spans from recording; snapshots still work.
void set_enabled(bool on);

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event count. add() is the hot-path operation: a relaxed
/// atomic add into the calling thread's shard, no locks anywhere.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    cells_[detail::shard_index() % detail::kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Merged value across shards (snapshot-time only).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::Cell, detail::kShards> cells_;
};

/// Monotonic sum of double contributions (detected severity seconds,
/// accumulated durations). Same sharding discipline as Counter; the
/// hot-path add is a relaxed atomic<double>::fetch_add into the calling
/// thread's shard.
class DoubleCounter {
 public:
  void add(double v) noexcept {
    if (!enabled()) return;
    cells_[detail::shard_index() % detail::kShards].v.fetch_add(
        v, std::memory_order_relaxed);
  }

  /// Merged value across shards (snapshot-time only).
  [[nodiscard]] double value() const {
    double sum = 0.0;
    for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (auto& c : cells_) c.v.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::DoubleCell, detail::kShards> cells_;
};

/// Last-write-wins instantaneous value (pool sizes, sim time, residuals).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if larger (lock-free running maximum).
  void max(double v) noexcept {
    if (!enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration
/// and never change, so observe() is a binary search plus one sharded
/// add. Tracks count, sum, and max alongside the buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;       ///< upper bounds, ascending
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count{0};
    double sum{0.0};
    double max{0.0};
  };
  [[nodiscard]] Snapshot snapshot() const;

  void reset();

 private:
  std::vector<double> bounds_;
  /// Row-major [shard][bucket]; bounds_.size() + 1 buckets per shard.
  /// Heap array because atomics are neither copyable nor movable.
  std::unique_ptr<detail::Cell[]> cells_;
  std::array<detail::DoubleCell, detail::kShards> sums_;
  std::atomic<double> max_{0.0};
};

/// The process-global registry. Metric handles returned by the lookup
/// functions are stable references; cache them at the call site.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  DoubleCounter& dcounter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// {"counters": {...}, "dcounters": {...}, "gauges": {...},
  /// "histograms": {...}} with keys sorted by name — snapshots of
  /// identical state are identical.
  [[nodiscard]] Json to_json() const;

  /// Zeroes every registered metric (registrations survive). Tests and
  /// benches isolate runs with this.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<DoubleCounter>> dcounters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands for Registry::instance().
Counter& counter(const std::string& name);
DoubleCounter& dcounter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name, std::vector<double> bounds);

/// Records one parallelized pipeline stage's fan-out under a uniform
/// naming scheme: "pipeline.<stage>.workers" (gauge, pool size used),
/// "pipeline.<stage>.items" (counter, items processed), and
/// "pipeline.<stage>.worker_items" (histogram, items per worker — the
/// stage's load-balance distribution). Every stage that fans out on
/// common/parallel reports through this, so snapshots describe the
/// whole pipeline's parallelism consistently.
void record_stage_parallelism(const std::string& stage,
                              const ParallelForStats& stats);

}  // namespace metascope::telemetry
