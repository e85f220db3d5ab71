// Flight recorder: an always-cheap execution-timeline trace of the
// analyzer itself.
//
// The telemetry registry (metrics.hpp) answers *how much* — counts and
// aggregate seconds per stage. It cannot answer *when* or *on which
// worker*: load imbalance, steal storms, and stragglers are invisible
// in aggregates. The recorder closes that gap the same way the source
// paper closes it for MPI codes — by keeping a timeline. Every thread
// that records owns a bounded ring buffer of timestamped events (task
// begin/end/steal from the worker pools, span begin/end
// from ScopedSpan, progress marks, per-rank item begin/end from the
// parallelized stages); when a ring wraps, the oldest events are
// overwritten and counted as dropped, so memory stays bounded no matter
// how long the run is.
//
// Hot-path discipline matches the registry: recording off (the default)
// costs one relaxed atomic load per call site; recording on costs a
// timestamp read (raw TSC on x86, steady_clock elsewhere — ticks are
// converted to nanoseconds only at snapshot time, calibrated over the
// whole recording window) plus four stores into thread-private memory —
// no locks, no shared cache lines, no division (ring capacities are
// rounded up to a power of two).
//
// Event names must be string literals (or otherwise outlive the
// recorder): rings store the pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace metascope::telemetry {

enum class TraceEventKind : std::uint8_t {
  TaskBegin,    ///< a pool worker started running a task
  TaskEnd,      ///< the task returned
  TaskSteal,    ///< this thread took a task from another worker's deque
  SpanBegin,    ///< a ScopedSpan opened (pipeline phase)
  SpanEnd,      ///< a ScopedSpan closed
  Mark,         ///< instantaneous annotation (progress line, phase mark)
};

/// Name of `kind` as a short stable token ("task-begin", "steal", ...).
const char* trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  std::int64_t ts_ns{0};     ///< steady-clock ns since the recorder epoch
  const char* name{nullptr};  ///< static string; never owned
  std::uint32_t id{0};       ///< task / rank / item id (0 when unused)
  TraceEventKind kind{TraceEventKind::Mark};
};

namespace detail {
/// Slow-path authority for whether recording is on. The hot path never
/// reads it: set_enabled() pushes the flag into every registered
/// thread's TlsHandle::state, so an enabled record() touches only its
/// own TLS line.
struct alignas(64) RecorderCtl {
  std::atomic<bool> enabled{false};
};
extern RecorderCtl g_ctl;

/// Per-thread cache of the hot ring fields, header-visible so
/// record_event() inlines the whole enabled path at the call site (no
/// out-of-line call, no singleton access). Everything the hot path
/// reads lives on this one cache line.
///
/// `state` is the three-way gate: 1 = enabled with a live ring (record
/// inline), -1 = registered but recording is off (return), 0 = this
/// thread must take the slow path (never recorded, or its ring was
/// retired by configure()/reset()). Only `state` and `slots` are ever
/// written by *other* threads (the recorder walks registered handles
/// under its mutex to flip them); `mask`, `seq`, and `seq_pub` are
/// owner-written only, so the benign stale-read race — a thread that
/// loads state==1 just as its ring is retired — lands its event in the
/// retired ring (kept allocated for exactly this reason) with a
/// matching mask, never in freed or mismatched memory.
struct alignas(64) TlsHandle {
  std::atomic<TraceEvent*> slots{nullptr};
  std::uint64_t mask{0};
  std::uint64_t seq{0};  ///< single writer; mirrored into *seq_pub
  std::atomic<std::uint64_t>* seq_pub{nullptr};
  std::atomic<std::int8_t> state{0};
};
#if defined(__GNUC__) && defined(__ELF__)
[[gnu::tls_model("initial-exec")]]
#endif
extern thread_local TlsHandle g_tls;

/// Out-of-line slow path for state==0: registers the calling thread
/// with the recorder, allocates its ring if recording is on, settles
/// `state`, and records the event if it can. Called once per thread
/// per ring retirement, not per event.
void record_slow(TraceEventKind kind, const char* name, std::uint32_t id);

/// Hot-path timestamp: raw TSC ticks on x86 (converted to ns at
/// snapshot time), steady_clock nanoseconds elsewhere.
inline std::int64_t now_ticks() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}
}  // namespace detail

/// True when the recorder accepts events. Separate from
/// telemetry::enabled(): counters stay cheap enough to leave on always,
/// while the recorder is opt-in per run (`msc_run --trace-out`).
inline bool recorder_enabled() {
  return detail::g_ctl.enabled.load(std::memory_order_relaxed);
}

class Recorder {
 public:
  static Recorder& instance();

  /// Opaque per-thread ring (defined in recorder.cpp; public only so
  /// the thread-local registration handle can hold a pointer to it).
  struct Ring;

  /// ~190 KiB per recording thread at 24 bytes/event — cheap enough to
  /// hold several full replay runs of per-task events.
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  /// Sets the per-thread ring capacity (events), rounded up to the next
  /// power of two so the hot path indexes with a mask. Retires all
  /// existing rings (they stop receiving events and drop out of
  /// snapshots), so call before enabling. Tests shrink this to force
  /// wrap-around.
  void configure(std::size_t ring_capacity);

  void set_enabled(bool on);

  /// Appends one event to the calling thread's ring, registering the
  /// ring on first use. `name` must be a string literal (stored by
  /// pointer). No-op when the recorder is disabled.
  void record(TraceEventKind kind, const char* name, std::uint32_t id = 0);

  /// Labels the calling thread's ring for export ("replay worker 3",
  /// "pipeline"). Registers the ring if the thread has none yet.
  void set_thread_label(const std::string& label);

  /// One thread's retained timeline, oldest event first. `dropped`
  /// counts events overwritten by ring wrap-around — the exporter and
  /// the snapshot both surface it, so a truncated recording is never
  /// mistaken for a complete one.
  struct ThreadLog {
    std::string label;
    std::uint64_t dropped{0};
    std::vector<TraceEvent> events;
  };

  /// Copies every live ring, in thread-registration order. Exact when
  /// the recording threads have quiesced (after a pool join, after an
  /// error unwound); concurrent writers cost at most a conservatively
  /// trimmed tail, never a torn read being reported as valid.
  [[nodiscard]] std::vector<ThreadLog> snapshot() const;

  /// Ring capacity snapshots are taken with (for drop accounting).
  [[nodiscard]] std::size_t ring_capacity() const;

  /// Retires every ring and restarts the epoch. Retired rings stay
  /// allocated until process exit (a live thread may still be mid-write
  /// in one); threads re-register on their next record.
  void reset();

 private:
  friend void detail::record_slow(TraceEventKind, const char*,
                                  std::uint32_t);
  friend struct TlsColdAccess;

  Recorder();
  Ring& local_ring();
  /// Registers the handle / allocates the ring as needed and settles
  /// TlsHandle::state for the calling thread (see record_slow).
  void slow_register();
  /// Drops a dying thread's handle from the walk list (its ring stays
  /// in snapshots). Called from the thread-local destructor.
  void unregister_thread(detail::TlsHandle* handle);

  mutable std::mutex m_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<Ring>> retired_;
  std::vector<detail::TlsHandle*> members_;  ///< live threads, for state walks
  std::atomic<std::int64_t> epoch_ticks_{0};  ///< hot-clock at epoch
  std::atomic<std::int64_t> epoch_ns_{0};     ///< steady_clock at epoch
  std::size_t capacity_{kDefaultRingCapacity};
};

/// Hot-path shorthand: one relaxed TLS load when disabled; fully
/// inlined when enabled — a timestamp read, four stores into
/// thread-private memory, one release store, and a prefetch of the
/// next slot, all of whose control data sits on a single TLS cache
/// line (no shared lines at all on the hot path).
inline void record_event(TraceEventKind kind, const char* name,
                         std::uint32_t id = 0) {
  detail::TlsHandle& t = detail::g_tls;
  const std::int8_t st = t.state.load(std::memory_order_relaxed);
  if (st != 1) {
    if (st == 0) detail::record_slow(kind, name, id);
    return;
  }
  TraceEvent* const slots = t.slots.load(std::memory_order_relaxed);
  if (slots == nullptr) return;  // ring retired mid-call; drop one event
  TraceEvent& slot = slots[t.seq & t.mask];
  slot.ts_ns = detail::now_ticks();  // raw ticks until snapshot()
  slot.name = name;
  slot.id = id;
  slot.kind = kind;
  ++t.seq;
  t.seq_pub->store(t.seq, std::memory_order_release);
#if defined(__GNUC__)
  // The pipeline evicts the ring between events, so the next slot's
  // line would miss; prefetching it now hides that latency in the
  // (microseconds of) work before the next record.
  __builtin_prefetch(&slots[t.seq & t.mask], 1);
#endif
}

/// Labels the calling thread's timeline track; no-op when disabled.
void set_thread_label(const std::string& label);

/// WorkerPool observer that streams the pool's task lifecycle into the
/// recorder: thread labels "<stage> worker <wid>", TaskBegin/TaskEnd/
/// TaskSteal events named after the stage with the task index as id.
/// Every parallelized pipeline stage passes one of these to
/// parallel_for. Stateless beyond the stage name, so one instance serves
/// any number of runs.
class RecordingObserver : public WorkerPool::Observer {
 public:
  /// `stage` must be a string literal (event names are stored by
  /// pointer). `item_stride` > 1 decimates the per-item events: only
  /// every stride-th task id is recorded (begin and end gate on the
  /// same predicate, so recorded slices always pair). Large fan-outs
  /// — including the replay itself — pass fanout_stride(n) so recorder
  /// load stays bounded no matter the rank count.
  explicit RecordingObserver(const char* stage, std::uint32_t item_stride = 1)
      : stage_(stage), stride_(item_stride == 0 ? 1 : item_stride) {}

  /// Stride that caps a fan-out of `n` items at ~256 recorded slices —
  /// still dense enough to see imbalance, bounded no matter the rank
  /// count. Fan-outs of <= 256 items record every slice.
  static std::uint32_t fanout_stride(std::size_t n) {
    return n <= 256 ? 1 : static_cast<std::uint32_t>((n + 255) / 256);
  }

  [[nodiscard]] bool wants_events() const override {
    return recorder_enabled();
  }
  void on_worker_attach(std::size_t wid) override;
  void on_task_begin(std::size_t task) override;
  void on_task_end(std::size_t task) override;
  void on_task_steal(std::size_t task) override;

  [[nodiscard]] const char* stage() const { return stage_; }
  [[nodiscard]] std::uint32_t item_stride() const { return stride_; }

 private:
  [[nodiscard]] bool keep(std::size_t task) const {
    return stride_ == 1 || task % stride_ == 0;
  }

  const char* stage_;
  std::uint32_t stride_;
};

}  // namespace metascope::telemetry
