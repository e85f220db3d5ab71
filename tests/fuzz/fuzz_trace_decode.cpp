// Fuzz target: the binary trace/defs decoders. The contract under test
// is the hardened-ingestion invariant: for ANY byte string, decoding
// either succeeds or throws a typed metascope::Error — never crashes,
// never reads out of bounds (ASan), never overflows arithmetic (UBSan),
// never allocates proportionally to attacker-controlled count fields.
//
// Both decoders run on the same input: the magic words ("MCSD" vs
// "MCST") disambiguate real files, so a single corpus exercises both
// paths and the mutator can freely morph one format into the other.
// The corpus seeds all three trace format versions (v1/v2 from the
// committed fixtures in tests/golden/legacy); the v3 columnar seeds and
// mutants (make_fuzz_corpus) aim the mutator at the type
// stream, per-type count cross-checks, column frames, and the double
// codec's validated fields (XOR lead bytes, scale indices, residual
// bit widths).
//
// The v3 reader (tracing::TraceStream — decode_local_trace reads a v3
// file as one window spanning it) runs on the same input in windows of
// three events, which forces per-window cursor refills mid-column. The
// two reads are held to each other: whenever the input opens as a
// stream, the whole-file decode and the windowed drain must both
// succeed with identical events and sync records, or both throw;
// anything else traps. The truncated-mid-block corpus mutants aim the
// mutator straight at the window boundaries.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"

namespace {

void require(bool ok) {
  if (!ok) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace metascope;
  const std::vector<std::uint8_t> bytes(data, data + size);
  std::optional<tracing::LocalTrace> whole;
  try {
    whole = tracing::decode_local_trace(bytes, "<fuzz>");
  } catch (const Error&) {
    // Typed rejection is the expected outcome for invalid input.
  }
  try {
    (void)tracing::decode_defs(bytes, "<fuzz>");
  } catch (const Error&) {
  }

  std::optional<tracing::TraceStream> s;
  try {
    s.emplace(bytes.data(), bytes.size(), "<fuzz>");
  } catch (const Error&) {
    return 0;  // not a v3 file that opens: nothing to hold side by side
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
  return 0;
}

#include "fuzz_driver.hpp"
