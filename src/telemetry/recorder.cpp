#include "telemetry/recorder.hpp"

#include <algorithm>
#include <chrono>

namespace metascope::telemetry {

namespace detail {
RecorderCtl g_ctl;
#if defined(__GNUC__) && defined(__ELF__)
[[gnu::tls_model("initial-exec")]]
#endif
thread_local TlsHandle g_tls;
}  // namespace detail

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Smallest power of two >= cap, so the ring index is a mask instead of
/// an integer division in record_event().
std::size_t round_up_pow2(std::size_t cap) {
  std::size_t p = 1;
  while (p < cap) p <<= 1;
  return p;
}

}  // namespace

const char* trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::TaskBegin:
      return "task-begin";
    case TraceEventKind::TaskEnd:
      return "task-end";
    case TraceEventKind::TaskSteal:
      return "steal";
    case TraceEventKind::SpanBegin:
      return "span-begin";
    case TraceEventKind::SpanEnd:
      return "span-end";
    case TraceEventKind::Mark:
      return "mark";
  }
  return "?";
}

/// One thread's bounded event ring. Only the owning thread writes;
/// `seq` (events ever written) is released after each slot write so a
/// snapshotting thread reads a consistent prefix. Events live at
/// seq % capacity — wrap-around overwrites the oldest, which is the
/// recorder's drop policy.
struct Recorder::Ring {
  explicit Ring(std::size_t cap)
      : slots(round_up_pow2(cap == 0 ? 1 : cap)),
        mask(slots.size() - 1) {}
  std::vector<TraceEvent> slots;  ///< ts_ns holds raw ticks until snapshot
  std::size_t mask;
  std::atomic<std::uint64_t> seq{0};
  std::string label;  ///< guarded by the recorder mutex
};

/// Out-of-line bridge so the anonymous-namespace thread-local below can
/// reach the recorder's private unregister hook.
struct TlsColdAccess {
  static void unregister(detail::TlsHandle* handle) {
    Recorder::instance().unregister_thread(handle);
  }
};

namespace {

/// Cold per-thread registration state; the hot fields live in
/// detail::g_tls (see recorder.hpp). reset()/configure() null the
/// handle's slots and zero its state, so a stale thread takes the slow
/// path and re-registers instead of writing into a retired ring. The
/// destructor pulls the handle off the recorder's walk list before the
/// thread's TLS goes away (g_tls itself is trivially destructible, so
/// late record_event calls from other TLS destructors stay safe).
struct TlsCold {
  Recorder::Ring* ring{nullptr};
  bool registered{false};
  std::string pending_label;  ///< label to apply on (re-)registration
  ~TlsCold() {
    if (registered) TlsColdAccess::unregister(&detail::g_tls);
  }
};
thread_local TlsCold tls_cold;

}  // namespace

Recorder::Recorder() {
  epoch_ticks_.store(detail::now_ticks());
  epoch_ns_.store(steady_now_ns());
}

Recorder& Recorder::instance() {
  static Recorder* r = new Recorder;  // leaked: threads may record at exit
  return *r;
}

void Recorder::configure(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& r : rings_) retired_.push_back(std::move(r));
  rings_.clear();
  capacity_ = round_up_pow2(
      ring_capacity == 0 ? kDefaultRingCapacity : ring_capacity);
  epoch_ticks_.store(detail::now_ticks(), std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  for (detail::TlsHandle* h : members_) {
    h->slots.store(nullptr, std::memory_order_relaxed);
    h->state.store(0, std::memory_order_relaxed);  // slow path re-registers
  }
}

void Recorder::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(m_);
  detail::g_ctl.enabled.store(on, std::memory_order_relaxed);
  for (detail::TlsHandle* h : members_) {
    // Threads without a ring go through the slow path on their next
    // record (to allocate one); a handle only ever gets state 1 here if
    // its owner already published the ring fields under this mutex.
    const bool has_ring =
        h->slots.load(std::memory_order_relaxed) != nullptr;
    h->state.store(on ? (has_ring ? 1 : 0) : std::int8_t{-1},
                   std::memory_order_relaxed);
  }
}

std::size_t Recorder::ring_capacity() const {
  std::lock_guard<std::mutex> lock(m_);
  return capacity_;
}

Recorder::Ring& Recorder::local_ring() {
  TlsCold& c = tls_cold;
  detail::TlsHandle& t = detail::g_tls;
  std::lock_guard<std::mutex> lock(m_);
  if (!c.registered) {
    members_.push_back(&t);
    c.registered = true;
  }
  if (c.ring == nullptr ||
      t.slots.load(std::memory_order_relaxed) == nullptr) {
    auto ring = std::make_unique<Ring>(capacity_);
    ring->label = c.pending_label;
    t.mask = ring->mask;
    t.seq = 0;
    t.seq_pub = &ring->seq;
    t.slots.store(ring->slots.data(), std::memory_order_relaxed);
    c.ring = ring.get();
    rings_.push_back(std::move(ring));
  }
  t.state.store(
      detail::g_ctl.enabled.load(std::memory_order_relaxed) ? 1 : -1,
      std::memory_order_relaxed);
  return *c.ring;
}

void Recorder::slow_register() {
  {
    TlsCold& c = tls_cold;
    detail::TlsHandle& t = detail::g_tls;
    std::lock_guard<std::mutex> lock(m_);
    if (!c.registered) {
      members_.push_back(&t);
      c.registered = true;
    }
    if (!detail::g_ctl.enabled.load(std::memory_order_relaxed)) {
      // Recording is off: remember the thread (so set_enabled can wake
      // it later) but don't allocate a ring it may never use.
      t.state.store(-1, std::memory_order_relaxed);
      return;
    }
  }
  (void)local_ring();  // allocates the ring and settles state
}

void Recorder::unregister_thread(detail::TlsHandle* handle) {
  std::lock_guard<std::mutex> lock(m_);
  members_.erase(std::remove(members_.begin(), members_.end(), handle),
                 members_.end());
}

void Recorder::record(TraceEventKind kind, const char* name,
                      std::uint32_t id) {
  record_event(kind, name, id);
}

void Recorder::set_thread_label(const std::string& label) {
  tls_cold.pending_label = label;  // survives ring retirement
  if (!recorder_enabled()) return;
  Ring& r = local_ring();
  std::lock_guard<std::mutex> lock(m_);
  r.label = label;
}

namespace detail {
void record_slow(TraceEventKind kind, const char* name, std::uint32_t id) {
  Recorder::instance().slow_register();
  // Only re-enter the fast path if registration ended with a live ring
  // (state stays -1 or 0 when recording is off) — otherwise this event
  // is dropped, matching the disabled no-op contract.
  if (g_tls.state.load(std::memory_order_relaxed) == 1)
    record_event(kind, name, id);
}
}  // namespace detail

std::vector<Recorder::ThreadLog> Recorder::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  // Tick → nanosecond conversion, calibrated over the whole window from
  // the epoch to now: both clocks were read together at the epoch and
  // are read together here, so the rate error shrinks as the recording
  // gets longer. On the steady-clock fallback path the rate is ~1.
  const std::int64_t e_ticks =
      epoch_ticks_.load(std::memory_order_relaxed);
  const std::int64_t e_ns = epoch_ns_.load(std::memory_order_relaxed);
  const std::int64_t d_ticks = detail::now_ticks() - e_ticks;
  const double ns_per_tick =
      d_ticks > 0 ? static_cast<double>(steady_now_ns() - e_ns) /
                        static_cast<double>(d_ticks)
                  : 1.0;
  std::vector<ThreadLog> out;
  out.reserve(rings_.size());
  for (const auto& r : rings_) {
    const std::size_t cap = r->slots.size();
    const std::uint64_t s1 = r->seq.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(s1, cap);
    ThreadLog log;
    log.label = r->label;
    log.dropped = s1 - n;
    log.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = s1 - n; i < s1; ++i)
      log.events.push_back(r->slots[i % cap]);
    // If the owner raced us, the oldest copied slots may have been
    // overwritten mid-copy; trim them so the log is conservative (a
    // shorter tail) rather than torn.
    const std::uint64_t s2 = r->seq.load(std::memory_order_acquire);
    const std::uint64_t lapped =
        std::min<std::uint64_t>(s2 - s1, log.events.size());
    if (lapped > 0) {
      log.events.erase(log.events.begin(),
                       log.events.begin() + static_cast<std::ptrdiff_t>(lapped));
      log.dropped += lapped;
    }
    for (TraceEvent& e : log.events)
      e.ts_ns = static_cast<std::int64_t>(
          static_cast<double>(e.ts_ns - e_ticks) * ns_per_tick);
    out.push_back(std::move(log));
  }
  return out;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& r : rings_) retired_.push_back(std::move(r));
  rings_.clear();
  epoch_ticks_.store(detail::now_ticks(), std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  for (detail::TlsHandle* h : members_) {
    h->slots.store(nullptr, std::memory_order_relaxed);
    h->state.store(0, std::memory_order_relaxed);  // slow path re-registers
  }
}

void set_thread_label(const std::string& label) {
  Recorder::instance().set_thread_label(label);
}

void RecordingObserver::on_worker_attach(std::size_t wid) {
  set_thread_label(std::string(stage_) + " worker " + std::to_string(wid));
}

void RecordingObserver::on_task_begin(std::size_t task) {
  if (!keep(task)) return;
  record_event(TraceEventKind::TaskBegin, stage_,
               static_cast<std::uint32_t>(task));
}

void RecordingObserver::on_task_end(std::size_t task) {
  if (!keep(task)) return;
  record_event(TraceEventKind::TaskEnd, stage_,
               static_cast<std::uint32_t>(task));
}

void RecordingObserver::on_task_steal(std::size_t task) {
  if (!keep(task)) return;
  record_event(TraceEventKind::TaskSteal, stage_,
               static_cast<std::uint32_t>(task));
}

}  // namespace metascope::telemetry
