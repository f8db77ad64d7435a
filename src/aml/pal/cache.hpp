// Cacheline utilities: padding wrappers to avoid false sharing between
// per-process counters and between lock words that the algorithms assume are
// independently cacheable.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace aml::pal {

/// Cache line size assumed throughout. std::hardware_destructive_interference_
/// size is not reliably available on every toolchain; 64 is correct for all
/// mainstream x86/ARM server parts.
inline constexpr std::size_t kCacheLine = 64;

/// A T padded and aligned to a full cache line.
template <typename T>
struct alignas(kCacheLine) CachePadded {
  T value{};

  CachePadded() = default;
  template <typename... Args>
  explicit CachePadded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }

 private:
  // Guarantee the next element of an array starts on a fresh line even if
  // sizeof(T) % kCacheLine == 0 handled by alignas; char pad for clarity.
  static_assert(alignof(T) <= kCacheLine, "over-aligned payload");
};

/// A std::allocator for owner-private container storage: every allocation
/// is line-aligned whole cache lines, so one owner's buffer shares no line
/// with a neighbouring owner's buffer on the heap (CachePadded pads the
/// container object, not the storage it points to).
template <typename T>
struct LineAllocator {
  using value_type = T;

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(bytes(n), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, bytes(n), std::align_val_t{kCacheLine});
  }

  template <typename U>
  bool operator==(const LineAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static std::size_t bytes(std::size_t n) {
    return (n * sizeof(T) + kCacheLine - 1) & ~(kCacheLine - 1);
  }
};

/// A vector whose storage is whole cache lines of its own.
template <typename T>
using LineVector = std::vector<T, LineAllocator<T>>;

}  // namespace aml::pal
