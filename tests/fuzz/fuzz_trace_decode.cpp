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
// The windowed reader (tracing::TraceStream — the streaming analyzer's
// lazy block-decode entry point) runs on the same input too: open-time
// validation, the light prepare-pass scan, and a small-window drain
// that forces per-window cursor refills mid-column. It must uphold the
// same invariant as the batch decoder, and the truncated-mid-block
// corpus mutants aim the mutator straight at the window boundaries.
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    (void)metascope::tracing::decode_local_trace(bytes, "<fuzz>");
  } catch (const metascope::Error&) {
    // Typed rejection is the expected outcome for invalid input.
  }
  try {
    (void)metascope::tracing::decode_defs(bytes, "<fuzz>");
  } catch (const metascope::Error&) {
  }
  try {
    metascope::tracing::TraceStream s(bytes.data(), bytes.size(), "<fuzz>");
    s.scan_light([](const metascope::tracing::Event&) {});
    // Tiny windows put every chunked cursor through mid-column refills.
    std::vector<metascope::tracing::Event> sink;
    while (!s.at_end()) {
      sink.clear();
      if (s.next(sink, 3) == 0) break;
    }
  } catch (const metascope::Error&) {
  }
  return 0;
}

#include "fuzz_driver.hpp"
