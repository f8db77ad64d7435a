#include "aml/model/native.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "aml/core/versioned_space.hpp"

namespace aml::model {
namespace {

TEST(Native, BasicOps) {
  NativeModel m(1);
  auto* w = m.alloc(1, 7);
  EXPECT_EQ(m.read(0, *w), 7u);
  m.write(0, *w, 8);
  EXPECT_EQ(m.faa(0, *w, 2), 8u);
  EXPECT_EQ(m.read(0, *w), 10u);
  EXPECT_TRUE(m.cas(0, *w, 10, 11));
  EXPECT_FALSE(m.cas(0, *w, 10, 12));
  EXPECT_EQ(m.swap(0, *w, 20), 11u);
  EXPECT_EQ(m.read(0, *w), 20u);
}

TEST(Native, WordsAreCacheLinePadded) {
  NativeModel m(1);
  auto* words = m.alloc(4, 0);
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&words[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&words[i + 1]);
    EXPECT_GE(b - a, 64u);
  }
}

TEST(Native, LargeAllocationsAreContiguous) {
  NativeModel m(1);
  auto* words = m.alloc(500, 3);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(m.read(0, words[i]), 3u);
    m.write(0, words[i], static_cast<std::uint64_t>(i + 1));
  }
  ASSERT_EQ(m.read(0, words[499]), 500u);
}

TEST(Native, AllocStableAcrossGrowth) {
  NativeModel m(1);
  auto* first = m.alloc(1, 111);
  for (int i = 0; i < 1000; ++i) m.alloc(1, i);
  m.alloc(std::size_t{1} << 15, 3);  // a chunk of its own
  m.alloc(1, 4);
  EXPECT_EQ(m.read(0, *first), 111u);
  EXPECT_EQ(m.words_allocated(), 1002u + (std::size_t{1} << 15));
}

TEST(Native, WaitWakesOnStore) {
  NativeModel m(2);
  auto* w = m.alloc(1, 0);
  std::thread waiter([&] {
    auto out = m.wait(
        0, *w, [](std::uint64_t v) { return v == 5; }, nullptr);
    EXPECT_EQ(out.value, 5u);
    EXPECT_FALSE(out.stopped);
  });
  m.write(1, *w, 5);
  waiter.join();
}

TEST(Native, WaitHonorsStop) {
  NativeModel m(1);
  auto* w = m.alloc(1, 0);
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    auto out = m.wait(
        0, *w, [](std::uint64_t v) { return v != 0; }, &stop);
    EXPECT_TRUE(out.stopped);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  waiter.join();
}

TEST(Native, FaaConcurrentSum) {
  NativeModel m(4);
  auto* w = m.alloc(1, 0);
  std::vector<std::thread> threads;
  for (Pid p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < 10000; ++i) m.faa(p, *w, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.read(0, *w), 40000u);
}

// --- the arena contract: contiguous, aligned, disjoint, stable ------------

/// One alloc() result: its first word and length.
struct Block {
  NativeModel::Word* words;
  std::size_t n;
};

/// Every word of every block is 64-B aligned and no two blocks overlap.
void ExpectAlignedAndDisjoint(std::vector<Block> blocks) {
  for (const Block& b : blocks) {
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b.words) % 64, 0u);
  }
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.words < b.words;
  });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    ASSERT_LE(blocks[i - 1].words + blocks[i - 1].n, blocks[i].words)
        << "blocks " << i - 1 << " and " << i << " overlap";
  }
}

TEST(Native, ArenaCarvesMixedAndOversizedBlocks) {
  NativeModel m(1);
  std::vector<Block> blocks;
  std::vector<std::uint64_t> tags;
  std::size_t words = 0;
  const auto add = [&](std::size_t n, std::uint64_t tag) {
    blocks.push_back({m.alloc(n, tag), n});
    tags.push_back(tag);
    words += n;
  };
  for (std::uint64_t i = 0; i < 300; ++i) add(1, 1000 + i);
  // 4 MiB in one request: larger than any chunk the arena has grown to, so
  // it must still come back as one contiguous run.
  add(std::size_t{1} << 16, 7);
  for (std::uint64_t i = 0; i < 300; ++i) add(1 + i % 5, 5000 + i);
  EXPECT_EQ(m.words_allocated(), words);
  ExpectAlignedAndDisjoint(blocks);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t i = 0; i < blocks[b].n; ++i) {
      ASSERT_EQ(m.read(0, blocks[b].words[i]), tags[b])
          << "block " << b << " word " << i;
    }
  }
}

TEST(Native, ConcurrentAllocationsAreDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kAllocs = 500;
  NativeModel m(kThreads);
  std::vector<std::vector<Block>> mine(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAllocs; ++i) {
        const std::size_t n = 1 + static_cast<std::size_t>((i + t) % 7);
        mine[t].push_back({m.alloc(n, static_cast<std::uint64_t>(t)), n});
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Block> all;
  std::size_t words = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const Block& b : mine[t]) {
      for (std::size_t i = 0; i < b.n; ++i) {
        ASSERT_EQ(m.read(0, b.words[i]), static_cast<std::uint64_t>(t));
      }
      all.push_back(b);
      words += b.n;
    }
  }
  EXPECT_EQ(m.words_allocated(), words);
  ExpectAlignedAndDisjoint(std::move(all));
}

TEST(Native, VersionedSpaceHandleBlocksSpanChunks) {
  NativeModel m(2);
  core::VersionedSpace<NativeModel> space(m, 2, 64);
  // Thousands of handles in blocks of mixed sizes, plus one block larger
  // than the handle arena's chunks so far.
  std::vector<std::pair<core::VersionedSpace<NativeModel>::Word*, std::size_t>>
      blocks;
  std::size_t logical = 0;
  for (std::size_t i = 0; i < 1500; ++i) {
    const std::size_t n = 1 + i % 4;
    blocks.emplace_back(space.alloc(n, 9), n);
    logical += n;
  }
  blocks.emplace_back(space.alloc(4096, 9), 4096);
  logical += 4096;
  EXPECT_EQ(space.logical_words(), logical);
  EXPECT_EQ(m.words_allocated(), 1 + 3 * logical);  // version word + triples

  std::uint32_t next = 0;
  for (const auto& [words, n] : blocks) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(words[i].idx, next++) << "handles must be contiguous";
    }
  }
  space.begin_session(0);
  for (const auto& [words, n] : blocks) {
    for (std::size_t i = 0; i < n; ++i) {
      space.write(0, words[i], words[i].idx);
    }
  }
  space.begin_session(1);
  for (const auto& [words, n] : blocks) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(space.read(1, words[i]), words[i].idx);
    }
  }
  space.next_incarnation(0);
  space.begin_session(1);
  for (const auto& [words, n] : blocks) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(space.read(1, words[i]), 9u) << "logical word " << words[i].idx;
    }
  }
}

}  // namespace
}  // namespace aml::model
