// An allocator whose large blocks are mapped straight from the OS.
#pragma once

#include <cstddef>

namespace metascope {

namespace detail {
/// Blocks of at least this many bytes get their own anonymous mapping —
/// glibc's initial mmap threshold, so small blocks behave as before.
inline constexpr std::size_t kPageBackedBytes = std::size_t{128} << 10;

void* page_allocate(std::size_t bytes);
void page_deallocate(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// std::allocator, except that a block of kPageBackedBytes or more is
/// mapped on its own and unmapped when freed, so its pages leave the
/// resident set the moment the container lets go of them.
///
/// glibc's malloc only does that above its mmap threshold, which it
/// raises to the size of each larger mapped block it frees (up to
/// 32 MiB). Below it, a block comes from the calling thread's arena, and
/// a worker thread's arena returns freed memory only once its free top
/// exceeds twice the threshold. Per-rank event arrays are decoded on
/// worker threads and hold most of a collection's bytes, so on the heap
/// whether dropping a collection gave its memory back depended on how
/// the ranks happened to split across the decode threads.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::page_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::page_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace metascope
