#include "clocksync/correction.hpp"

#include <cmath>
#include <functional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"

namespace metascope::clocksync {

namespace {

using tracing::OffsetRecord;
using tracing::SyncScheme;
using tracing::TraceCollection;

/// Finds the record of the given phase; throws if absent.
const OffsetRecord& record_of_phase(const tracing::LocalTrace& t, int phase) {
  for (const auto& r : t.sync)
    if (r.phase == phase) return r;
  std::ostringstream os;
  os << "rank " << t.rank << " lacks phase-" << phase << " offset record";
  throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", t.rank, -1});
}

/// Whether rank r's clock needs mapping through its offset records. The
/// metamaster (rank 0, as the measurement layer chooses it) defines the
/// global domain, and a rank with neither records nor events (a
/// permissive read quarantined it) has nothing to map: both keep the
/// identity. A rank with events but no records cannot be mapped.
bool needs_records(const TraceCollection& tc, Rank r) {
  if (r == 0) return false;
  const auto& t = tc.ranks[static_cast<std::size_t>(r)];
  if (!t.sync.empty()) return true;
  if (t.events.empty()) return false;
  throw Error(ErrorCode::Corrupt,
              "rank " + std::to_string(r) +
                  " has events but no offset records",
              ErrorContext{"", r, -1});
}

/// Correction mapping this process's clock onto its reference process's
/// clock from one offset record (shift only).
LinearCorrection from_single(const OffsetRecord& rec) {
  return {rec.offset, 1.0};
}

/// Correction from two offset records by linear interpolation:
/// offset(t) = o_b + (o_e - o_b) * (t - t_b) / (t_e - t_b);
/// corrected(t) = t + offset(t).
LinearCorrection from_two(const OffsetRecord& begin,
                          const OffsetRecord& end) {
  const double span = end.local_mid - begin.local_mid;
  MSC_CHECK(span > 1e-9, "offset measurements too close for interpolation");
  const double rate = (end.offset - begin.offset) / span;
  return {begin.offset - rate * begin.local_mid, 1.0 + rate};
}

}  // namespace

std::vector<LinearCorrection> build_corrections(const TraceCollection& tc) {
  const int n = tc.num_ranks();
  std::vector<LinearCorrection> out(static_cast<std::size_t>(n));
  switch (tc.scheme) {
    case SyncScheme::None:
      return out;
    case SyncScheme::FlatSingle: {
      for (int r = 1; r < n; ++r) {
        if (!needs_records(tc, r)) continue;
        const auto& t = tc.ranks[static_cast<std::size_t>(r)];
        const auto& rec = record_of_phase(t, 0);
        MSC_CHECK(rec.ref_rank == 0, "flat record must reference rank 0");
        out[static_cast<std::size_t>(r)] = from_single(rec);
      }
      return out;
    }
    case SyncScheme::FlatTwo: {
      for (int r = 1; r < n; ++r) {
        if (!needs_records(tc, r)) continue;
        const auto& t = tc.ranks[static_cast<std::size_t>(r)];
        const auto& rb = record_of_phase(t, 0);
        const auto& re = record_of_phase(t, 1);
        MSC_CHECK(rb.ref_rank == 0 && re.ref_rank == 0,
                  "flat record must reference rank 0");
        out[static_cast<std::size_t>(r)] = from_two(rb, re);
      }
      return out;
    }
    case SyncScheme::HierarchicalTwo: {
      // Every other rank that needs mapping has records against exactly
      // one reference; chase the reference chain (slave -> local master
      // -> metamaster) composing interpolations. Chains are at most two
      // deep, but the resolver is generic with cycle detection.
      std::vector<int> state(static_cast<std::size_t>(n), 0);  // 0/1/2
      const std::function<const LinearCorrection&(Rank)> resolve =
          [&](Rank r) -> const LinearCorrection& {
        auto& slot = out[static_cast<std::size_t>(r)];
        auto& st = state[static_cast<std::size_t>(r)];
        if (r == 0 || st == 2) return slot;
        MSC_CHECK(st != 1, "cycle in offset-record references");
        st = 1;
        const auto& t = tc.ranks[static_cast<std::size_t>(r)];
        const auto& rb = record_of_phase(t, 0);
        const auto& re = record_of_phase(t, 1);
        MSC_CHECK(rb.ref_rank == re.ref_rank,
                  "phase records reference different masters");
        // ref_rank arrives from decoded trace bytes — bound it before
        // it indexes anything (a garbage reference must be a typed
        // error, not an out-of-bounds write).
        if (rb.ref_rank < 0 || rb.ref_rank >= n)
          throw Error(ErrorCode::Corrupt,
                      "offset record of rank " + std::to_string(r) +
                          " references nonexistent rank " +
                          std::to_string(rb.ref_rank),
                      ErrorContext{"", r, -1});
        // A reference without records of its own (a quarantined local
        // master) leaves this rank's clock with no path to the global
        // domain.
        if (rb.ref_rank != 0 &&
            tc.ranks[static_cast<std::size_t>(rb.ref_rank)].sync.empty())
          throw Error(ErrorCode::Corrupt,
                      "offset records of rank " + std::to_string(r) +
                          " reference rank " + std::to_string(rb.ref_rank) +
                          ", which has no offset records",
                      ErrorContext{"", r, -1});
        const LinearCorrection to_ref = from_two(rb, re);
        slot = LinearCorrection::compose(resolve(rb.ref_rank), to_ref);
        st = 2;
        return slot;
      };
      for (Rank r = 0; r < n; ++r)
        if (needs_records(tc, r)) resolve(r);
      return out;
    }
  }
  return out;
}

void apply_corrections(tracing::TraceCollection& tc,
                       const std::vector<LinearCorrection>& corrections,
                       std::size_t max_workers) {
  MSC_CHECK(corrections.size() == static_cast<std::size_t>(tc.num_ranks()),
            "one correction per rank required");
  MSC_CHECK(!tc.synchronized, "collection already synchronized");
  // One task per rank: each rewrites only its own trace's timestamps.
  telemetry::RecordingObserver rec_obs(
      "sync_apply",
      telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), max_workers,
      [&](std::size_t i) {
        auto& t = tc.ranks[i];
        const auto& c = corrections[static_cast<std::size_t>(t.rank)];
        for (auto& e : t.events) e.time = c.apply(e.time);
      },
      &rec_obs);
  telemetry::record_stage_parallelism("sync_apply", pst);
  tc.synchronized = true;
}

std::vector<LinearCorrection> synchronize(tracing::TraceCollection& tc,
                                          std::size_t max_workers) {
  telemetry::ScopedSpan span("sync");
  if (telemetry::progress_enabled()) telemetry::progress("sync", 0.0);
  auto c = build_corrections(tc);
  apply_corrections(tc, c, max_workers);
  telemetry::counter("sync.corrections_built").add(c.size());
  telemetry::counter("sync.passes").add(1);
  if (telemetry::progress_enabled()) telemetry::progress("sync", 1.0);
  return c;
}

}  // namespace metascope::clocksync
