// Test helpers that damage one rank's trace inside a partial archive's
// trace container (tracing/epilog_io.hpp) while keeping the container
// itself consistent: the other blobs stay byte for byte, and the index
// and trailer are rebuilt around the new bytes. A damaged blob then
// fails exactly as the same bytes would on their own, at an offset
// shifted by where the blob starts in the container.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "tracing/epilog_io.hpp"

namespace metascope::test {

/// Every rank id a test topology uses, ascending: the `holds` argument
/// for containers whose exact rank set a helper does not need.
inline const std::vector<Rank>& any_rank() {
  static const std::vector<Rank> all = [] {
    std::vector<Rank> v(1 << 12);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }();
  return all;
}

/// The index entries of the container at `path`.
inline std::vector<tracing::ContainerExtent> container_extents(
    const std::string& path) {
  const auto bytes = read_file_bytes(path);
  return tracing::decode_container(bytes.data(), bytes.size(), any_rank(),
                                   path);
}

/// Where rank r's blob lies in the container at `path`.
inline tracing::ContainerExtent extent_of(const std::string& path, Rank r) {
  for (const auto& e : container_extents(path))
    if (e.rank == r) return e;
  throw Error("rank " + std::to_string(r) + " has no blob in " + path);
}

/// Rank r's blob in the container at `path`.
inline std::vector<std::uint8_t> read_blob(const std::string& path, Rank r) {
  const auto e = extent_of(path, r);
  return read_file_range(path, e.offset, static_cast<std::size_t>(e.length));
}

/// Rewrites the container at `path` with rank r's blob replaced by
/// `blob`; with `drop` set, r loses its index entry instead. Returns
/// the offset at which r's blob now starts.
inline std::uint64_t replace_blob(const std::string& path, Rank r,
                                  const std::vector<std::uint8_t>& blob,
                                  bool drop = false) {
  const auto bytes = read_file_bytes(path);
  std::vector<std::uint8_t> out;
  std::vector<tracing::ContainerExtent> index;
  std::uint64_t at = 0;
  for (const auto& e : tracing::decode_container(bytes.data(), bytes.size(),
                                                 any_rank(), path)) {
    if (e.rank == r) {
      at = out.size();
      if (drop) continue;
      out.insert(out.end(), blob.begin(), blob.end());
      index.push_back({r, 0, blob.size()});
    } else {
      const auto* p = bytes.data() + e.offset;
      out.insert(out.end(), p, p + e.length);
      index.push_back(e);
    }
  }
  const auto tail = tracing::encode_container_index(index);
  out.insert(out.end(), tail.begin(), tail.end());
  write_file_bytes(path, out);
  return at;
}

}  // namespace metascope::test
