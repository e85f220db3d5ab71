#include "common/page_allocator.hpp"

#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace metascope::detail {

void* page_allocate(std::size_t bytes) {
#if defined(__unix__) || defined(__APPLE__)
  if (bytes >= kPageBackedBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  return ::operator new(bytes);
}

void page_deallocate(void* p, std::size_t bytes) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  if (bytes >= kPageBackedBytes) {
    ::munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p, bytes);
}

}  // namespace metascope::detail
