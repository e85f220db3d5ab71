#include "analysis/wait_rules.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace metascope::analysis {

double clamp_wait(double wait, double op_dur) {
  return std::clamp(wait, 0.0, std::max(op_dur, 0.0));
}

double late_sender_wait(const P2pSide& send, const P2pSide& recv) {
  return clamp_wait(send.op_enter - recv.op_enter,
                    recv.op_exit - recv.op_enter);
}

double late_receiver_wait(const P2pSide& send, const P2pSide& recv,
                          bool blocking_standard_send) {
  if (!blocking_standard_send) return 0.0;
  if (recv.op_enter > send.op_exit) return 0.0;
  return clamp_wait(recv.op_enter - send.op_enter,
                    send.op_exit - send.op_enter);
}

double collective_completion_wait(double last_enter, const CollMember& m) {
  if (m.enter >= last_enter) return 0.0;
  return clamp_wait(m.exit - last_enter, m.exit - m.enter);
}

bool comm_spans_metahosts(const tracing::TraceDefs& defs,
                          const std::vector<Rank>& comm_members) {
  MSC_CHECK(!comm_members.empty(), "empty communicator");
  const MetahostId first = defs.metahost_of(comm_members.front());
  for (Rank r : comm_members)
    if (defs.metahost_of(r) != first) return true;
  return false;
}

}  // namespace metascope::analysis
