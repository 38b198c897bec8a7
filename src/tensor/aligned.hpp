// Cache-line aligned allocation for numeric buffers.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace bpar::tensor {

inline constexpr std::size_t kCacheLineBytes = 64;

struct AlignedDeleter {
  void operator()(float* p) const noexcept { ::operator delete[](p, std::align_val_t{kCacheLineBytes}); }
};

using AlignedFloatPtr = std::unique_ptr<float[], AlignedDeleter>;

/// Allocates `n` floats aligned to a cache line. `n == 0` yields nullptr.
inline AlignedFloatPtr allocate_floats(std::size_t n) {
  if (n == 0) return nullptr;
  auto* p = static_cast<float*>(
      ::operator new[](n * sizeof(float), std::align_val_t{kCacheLineBytes}));
  return AlignedFloatPtr(p);
}

/// Allocator for std::vector that puts every buffer on a cache-line
/// boundary, so 64-byte vector loads from it never straddle two lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t /*n*/) const noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace bpar::tensor
