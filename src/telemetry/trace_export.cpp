#include "telemetry/trace_export.hpp"

#include <string>
#include <vector>

#include "telemetry/recorder.hpp"

namespace metascope::telemetry {

namespace {

constexpr int kPid = 1;  // one process; Chrome requires the field

Json meta_event(const char* name, int tid, const std::string& value) {
  Json e{Json::Object{}};
  e.set("ph", "M");
  e.set("pid", kPid);
  e.set("tid", tid);
  e.set("name", name);
  Json args{Json::Object{}};
  args.set("name", value);
  e.set("args", std::move(args));
  return e;
}

Json slice_event(const char* ph, int tid, double ts_us, const char* name,
                 std::uint32_t id) {
  Json e{Json::Object{}};
  e.set("ph", ph);
  e.set("pid", kPid);
  e.set("tid", tid);
  e.set("ts", ts_us);
  e.set("name", name ? name : "?");
  Json args{Json::Object{}};
  args.set("id", static_cast<std::int64_t>(id));
  e.set("args", std::move(args));
  return e;
}

Json instant_event(int tid, double ts_us, const char* name,
                   std::uint32_t id) {
  Json e = slice_event("i", tid, ts_us, name, id);
  e.set("s", "t");  // thread-scoped instant
  return e;
}

}  // namespace

Json chrome_trace_json() {
  const auto logs = Recorder::instance().snapshot();
  Json events{Json::Array{}};
  Json dropped{Json::Object{}};
  std::uint64_t total_events = 0;

  events.push_back(meta_event("process_name", 0, "metascope"));
  int tid = 0;
  for (const auto& log : logs) {
    const std::string label =
        log.label.empty() ? "thread " + std::to_string(tid) : log.label;
    events.push_back(meta_event("thread_name", tid, label));
    dropped.set(label, static_cast<std::int64_t>(log.dropped));

    // Per-track begin stack: ring wrap-around can strand an end whose
    // begin was overwritten (skipped) or a begin whose end is yet to
    // come when the snapshot was taken (closed at the last timestamp).
    std::vector<const TraceEvent*> open;
    double last_ts_us = 0.0;
    for (const TraceEvent& ev : log.events) {
      const double ts_us = static_cast<double>(ev.ts_ns) * 1e-3;
      last_ts_us = ts_us;
      switch (ev.kind) {
        case TraceEventKind::TaskBegin:
        case TraceEventKind::SpanBegin:
          open.push_back(&ev);
          events.push_back(slice_event("B", tid, ts_us, ev.name, ev.id));
          ++total_events;
          break;
        case TraceEventKind::TaskEnd:
        case TraceEventKind::SpanEnd:
          if (open.empty()) break;  // begin lost to wrap-around
          open.pop_back();
          events.push_back(slice_event("E", tid, ts_us, ev.name, ev.id));
          ++total_events;
          break;
        case TraceEventKind::TaskSteal:
          events.push_back(instant_event(tid, ts_us, "steal", ev.id));
          ++total_events;
          break;
        case TraceEventKind::Mark:
          events.push_back(instant_event(tid, ts_us, ev.name, ev.id));
          ++total_events;
          break;
      }
    }
    while (!open.empty()) {
      const TraceEvent* b = open.back();
      open.pop_back();
      events.push_back(slice_event("E", tid, last_ts_us, b->name, b->id));
      ++total_events;
    }
    ++tid;
  }

  Json other{Json::Object{}};
  other.set("ring_capacity",
            static_cast<std::int64_t>(Recorder::instance().ring_capacity()));
  other.set("dropped_events", std::move(dropped));
  other.set("emitted_events", static_cast<std::int64_t>(total_events));
  Json out{Json::Object{}};
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  out.set("otherData", std::move(other));
  return out;
}

void save_chrome_trace(const std::string& path) {
  save_json_file(path, chrome_trace_json());
}

}  // namespace metascope::telemetry
