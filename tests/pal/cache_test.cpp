#include "aml/pal/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace aml::pal {
namespace {

TEST(CachePadded, AlignmentAndStride) {
  static_assert(alignof(CachePadded<std::uint64_t>) == kCacheLine);
  static_assert(sizeof(CachePadded<std::uint64_t>) % kCacheLine == 0);
  CachePadded<std::uint64_t> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLine);
  }
}

TEST(CachePadded, ValueAccess) {
  CachePadded<int> v(41);
  EXPECT_EQ(*v, 41);
  *v += 1;
  EXPECT_EQ(v.value, 42);
}

// Small owner-private buffers allocated back to back (as a spin-node pool's
// per-owner states are) must not share a line, whatever malloc would do.
TEST(LineVector, SmallBuffersGetLinesOfTheirOwn) {
  std::vector<LineVector<std::uint8_t>> owners;
  for (int i = 0; i < 8; ++i) owners.emplace_back(65, std::uint8_t{0});
  std::vector<std::uintptr_t> lines;
  for (const auto& v : owners) {
    const auto first = reinterpret_cast<std::uintptr_t>(v.data());
    ASSERT_EQ(first % kCacheLine, 0u);
    const auto last = first + v.size() - 1;
    for (std::uintptr_t l = first / kCacheLine; l <= last / kCacheLine; ++l) {
      lines.push_back(l);
    }
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "two owners' buffers share a line";
}

}  // namespace
}  // namespace aml::pal
