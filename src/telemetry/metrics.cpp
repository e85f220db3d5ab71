#include "telemetry/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace metascope::telemetry {

namespace detail {

std::atomic<bool> g_enabled{true};

std::size_t assign_shard() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// --- Histogram ---------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  MSC_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
            "histogram bucket bounds must be ascending");
  cells_ = std::make_unique<detail::Cell[]>(detail::kShards *
                                            (bounds_.size() + 1));
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  // lower_bound, so bucket b counts values <= bounds[b] — matching the
  // "le" labels the snapshot JSON reports.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  const std::size_t shard = detail::shard_index() % detail::kShards;
  cells_[shard * (bounds_.size() + 1) + bucket].v.fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].v.fetch_add(v, std::memory_order_relaxed);
  double cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.assign(bounds_.size() + 1, 0);
  for (std::size_t shard = 0; shard < detail::kShards; ++shard) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      s.counts[b] += cells_[shard * (bounds_.size() + 1) + b].v.load(
          std::memory_order_relaxed);
    s.sum += sums_[shard].v.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : s.counts) s.count += c;
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  const std::size_t n = detail::kShards * (bounds_.size() + 1);
  for (std::size_t i = 0; i < n; ++i)
    cells_[i].v.store(0, std::memory_order_relaxed);
  for (auto& s : sums_) s.v.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

DoubleCounter& Registry::dcounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = dcounters_[name];
  if (!slot) slot = std::make_unique<DoubleCounter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(m_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(m_);
  Json counters{Json::Object{}};
  for (const auto& [name, c] : counters_)
    counters.set(name, Json(c->value()));
  Json dcounters{Json::Object{}};
  for (const auto& [name, c] : dcounters_)
    dcounters.set(name, Json(c->value()));
  Json gauges{Json::Object{}};
  for (const auto& [name, g] : gauges_) gauges.set(name, Json(g->value()));
  Json histograms{Json::Object{}};
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    Json buckets{Json::Array{}};
    for (std::size_t b = 0; b < s.counts.size(); ++b) {
      Json bucket{Json::Object{}};
      // The last bucket has no upper bound (overflow).
      if (b < s.bounds.size()) bucket.set("le", Json(s.bounds[b]));
      bucket.set("count", Json(s.counts[b]));
      buckets.push_back(std::move(bucket));
    }
    Json hj{Json::Object{}};
    hj.set("count", Json(s.count));
    hj.set("sum", Json(s.sum));
    hj.set("max", Json(s.max));
    hj.set("buckets", std::move(buckets));
    histograms.set(name, std::move(hj));
  }
  Json out{Json::Object{}};
  out.set("counters", std::move(counters));
  out.set("dcounters", std::move(dcounters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, c] : dcounters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}

DoubleCounter& dcounter(const std::string& name) {
  return Registry::instance().dcounter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  return Registry::instance().histogram(name, std::move(bounds));
}

void record_stage_parallelism(const std::string& stage,
                              const ParallelForStats& stats) {
  if (!enabled()) return;
  const std::string prefix = "pipeline." + stage;
  gauge(prefix + ".workers").set(static_cast<double>(stats.workers));
  counter(prefix + ".items").add(stats.items);
  Histogram& h = histogram(
      prefix + ".worker_items",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
  for (const std::size_t n : stats.items_per_worker)
    h.observe(static_cast<double>(n));
}

}  // namespace metascope::telemetry
