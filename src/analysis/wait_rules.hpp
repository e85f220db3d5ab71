// The pure wait-state formulas (paper §3–§4). Detectors in
// detectors.cpp evaluate these from pattern-engine callbacks; the
// formulas stay free functions so tests can probe edge cases directly.
//
// Waits are always clamped into the waiting operation's own duration, so
// severity never exceeds measured time even under residual clock error.
#pragma once

#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/defs.hpp"

namespace metascope::analysis {

/// clamp(wait, 0, max(op_dur, 0)) — every formula routes through this,
/// which is why severities are never negative and never exceed the
/// waiting operation's measured duration.
double clamp_wait(double wait, double op_dur);

/// What each side of a point-to-point transfer knows about itself.
struct P2pSide {
  Rank rank{kNoRank};
  double op_enter{0.0};
  double op_exit{0.0};
  CallPathId cnode;
  /// Region of the MPI call the event sits in (MPI_Send / MPI_Sendrecv /
  /// MPI_Recv / MPI_Wait / ...). Late Receiver only applies to plain
  /// blocking sends.
  RegionId region;
};

/// Late Sender: receiver blocked because the send started later.
/// Returns seconds (0 if no wait).
double late_sender_wait(const P2pSide& send, const P2pSide& recv);

/// Late Receiver: a *blocking standard send* still inside the call when
/// the receive was posted — the rendezvous handshake made the sender
/// wait. Two guards keep it honest:
///  - `blocking_standard_send` must hold, i.e. the send-side region is
///    MPI_Send (an MPI_Sendrecv's late exit is its own receive half,
///    already covered by Late Sender; an MPI_Isend never blocks) — the
///    caller reads it from the RegionClassTable, no string compare;
///  - the receive must have been posted before the send op ended (an
///    eager send that completed long before the receive was posted did
///    not wait for it).
double late_receiver_wait(const P2pSide& send, const P2pSide& recv,
                          bool blocking_standard_send);

/// One member of a collective instance.
struct CollMember {
  Rank rank{kNoRank};
  double enter{0.0};
  double exit{0.0};
  CallPathId cnode;
};

/// Completion ("drain") time of one collective member: the part of its
/// dwell after the last participant arrived. Members that themselves
/// arrived at `last_enter` (including every member of a single-member
/// or simultaneously-entered instance) have no completion wait — their
/// whole dwell is intrinsic operation time, not drain.
double collective_completion_wait(double last_enter, const CollMember& m);

/// True if the communicator spans more than one metahost.
bool comm_spans_metahosts(const tracing::TraceDefs& defs,
                          const std::vector<Rank>& comm_members);

}  // namespace metascope::analysis
