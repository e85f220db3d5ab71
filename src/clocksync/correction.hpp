// Linear timestamp corrections (paper §3): under the constant-drift
// assumption every node clock is a linear function of any reference
// clock, so the post-mortem correction is itself linear:
//
//     global(t_local) = intercept + slope * t_local
//
// Corrections compose (slave -> local master -> metamaster), which is
// exactly how the hierarchical scheme stacks its two measurements.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "tracing/trace.hpp"

namespace metascope::clocksync {

struct LinearCorrection {
  double intercept{0.0};
  double slope{1.0};

  [[nodiscard]] double apply(double local) const {
    return intercept + slope * local;
  }

  /// outer ∘ inner: first map through `inner`, then through `outer`.
  [[nodiscard]] static LinearCorrection compose(
      const LinearCorrection& outer, const LinearCorrection& inner) {
    return {outer.intercept + outer.slope * inner.intercept,
            outer.slope * inner.slope};
  }

  [[nodiscard]] static LinearCorrection identity() { return {}; }

  bool operator==(const LinearCorrection&) const = default;
};

/// Builds one correction per rank from the offset records embedded in the
/// traces, according to the collection's synchronization scheme:
///
///  - FlatSingle: offset shift only (no drift compensation) — the paper's
///    Table 2 row (i);
///  - FlatTwo: linear interpolation between the start and end offsets
///    against the global master — row (ii), the pre-metacomputing method;
///  - HierarchicalTwo: per-process interpolation against the local master
///    composed with the local master's interpolation against the
///    metamaster — row (iii), this paper's contribution;
///  - None: identities.
///
/// Rank 0, the metamaster, keeps the identity, and so does a rank with
/// neither offset records nor events (one a permissive read quarantined).
/// Throws a Corrupt Error naming the rank when any other rank has events
/// but no records, or when its records reference a rank other than 0
/// that has none (naming both ranks): its clock cannot be mapped.
std::vector<LinearCorrection> build_corrections(
    const tracing::TraceCollection& tc);

/// Applies per-rank corrections to all event timestamps in place and
/// flags the collection as synchronized. Each rank's rewrite is
/// independent, so the work fans out on up to `max_workers` threads
/// (0 = hardware concurrency); results are identical for any count.
void apply_corrections(tracing::TraceCollection& tc,
                       const std::vector<LinearCorrection>& corrections,
                       std::size_t max_workers = 0);

/// build + apply in one step; returns the corrections used.
std::vector<LinearCorrection> synchronize(tracing::TraceCollection& tc,
                                          std::size_t max_workers = 0);

}  // namespace metascope::clocksync
