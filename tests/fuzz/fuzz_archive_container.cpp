// Fuzz target: the trace-container index (tracing::decode_container —
// trailer first, then the index). The contract under test is the
// hardened-ingestion invariant: for ANY byte string, parsing either
// succeeds or throws a typed metascope::Error — never crashes, never
// reads out of bounds (ASan), never overflows arithmetic (UBSan), never
// allocates proportionally to the index's entry count before checking
// it against the bytes present.
//
// The input is a whole container whose directory holds ranks 0..63
// (the seed corpus comes from a four-rank experiment, make_fuzz_corpus).
// A parse that succeeds must hand back extents that tile the blob region
// in rank order, and every extent must decode the same way whole
// (decode_local_trace) and as a TraceStream read in windows of three
// events: both succeed with identical events and sync records, or both
// throw; anything else traps.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"

namespace {

void require(bool ok) {
  if (!ok) __builtin_trap();
}

const std::vector<metascope::Rank>& held_ranks() {
  static const std::vector<metascope::Rank> held = [] {
    std::vector<metascope::Rank> v(64);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }();
  return held;
}

/// Decodes one blob whole and in three-event windows and holds the two
/// reads to each other.
void check_blob(const std::uint8_t* blob, std::size_t size) {
  using namespace metascope;
  std::optional<tracing::LocalTrace> whole;
  try {
    whole = tracing::decode_local_trace(blob, size, "<fuzz>");
  } catch (const Error&) {
  }
  std::optional<tracing::TraceStream> s;
  try {
    s.emplace(blob, size, "<fuzz>");
  } catch (const Error&) {
    return;  // not a v3 blob that opens: nothing to hold side by side
  }
  std::vector<tracing::Event> windowed;
  bool drained = true;
  try {
    while (s->next(windowed, 3) != 0) {
    }
  } catch (const Error&) {
    drained = false;
  }
  require(drained == whole.has_value());
  if (drained) {
    require(whole->rank == s->rank());
    require(whole->sync == s->sync());
    require(std::equal(whole->events.begin(), whole->events.end(),
                       windowed.begin(), windowed.end()));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace metascope;
  const std::vector<std::uint8_t> bytes(data, data + size);
  std::vector<tracing::ContainerExtent> extents;
  try {
    extents = tracing::decode_container(bytes.data(), bytes.size(),
                                        held_ranks(), "<fuzz>");
  } catch (const Error&) {
    return 0;  // typed rejection is the expected outcome for bad input
  }
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const auto& e = extents[i];
    require(e.offset == offset);
    require(i == 0 || extents[i - 1].rank < e.rank);
    require(std::binary_search(held_ranks().begin(), held_ranks().end(),
                               e.rank));
    offset += e.length;
    require(offset + tracing::kContainerTrailerBytes <= bytes.size());
    check_blob(bytes.data() + e.offset, static_cast<std::size_t>(e.length));
  }
  return 0;
}

#include "fuzz_driver.hpp"
