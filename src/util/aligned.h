#ifndef AUTOFP_UTIL_ALIGNED_H_
#define AUTOFP_UTIL_ALIGNED_H_

/// Cache-line-aligned storage for the data plane. Matrix (util/matrix.h)
/// keeps its elements in an AlignedVector so every matrix starts on a
/// 64-byte boundary: whole cache lines per vector load and no straddle
/// on the first lane. Alignment is a performance property only — the
/// SIMD wrapper (util/simd.h) uses unaligned loads, so code stays
/// correct on any interior offset.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace autofp {

template <typename T, std::size_t Alignment = 64>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    // Size must be a multiple of the alignment for std::aligned_alloc.
    const std::size_t bytes = (n * sizeof(T) + Alignment - 1) / Alignment *
                              Alignment;
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// The storage type of Matrix and of kernels' reusable scratch buffers.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

}  // namespace autofp

#endif  // AUTOFP_UTIL_ALIGNED_H_
