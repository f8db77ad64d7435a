#include "aml/model/native.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
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

/// The cache line holding `p`.
std::uintptr_t line_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) / 64;
}

// The word policy: words of one block are packed 8 B apart; a block is
// padded to whole lines, so the next block (even alloc(1)) starts on a
// fresh line.
TEST(Native, AllocBlocksArePaddedToWholeLines) {
  static_assert(sizeof(NativeModel::Word) == 8);
  NativeModel m(1);
  auto* words = m.alloc(4, 0);
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&words[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&words[i + 1]);
    EXPECT_EQ(b - a, 8u);
    EXPECT_EQ(line_of(&words[i]), line_of(&words[0]));
  }
  auto* single = m.alloc(1, 0);
  auto* record = m.alloc({0, 5, 5});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(single) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(record) % 64, 0u);
  EXPECT_NE(line_of(single), line_of(words));
  EXPECT_NE(line_of(record), line_of(single));
  EXPECT_EQ(m.read(0, record[0]), 0u);
  EXPECT_EQ(m.read(0, record[1]), 5u);
  EXPECT_EQ(m.read(0, record[2]), 5u);
  EXPECT_EQ(m.words_allocated(), 8u);
  EXPECT_EQ(m.bytes_allocated(), 3u * 64);
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

/// Every block starts on a cache line and no two blocks share a line.
void ExpectAlignedAndLineDisjoint(std::vector<Block> blocks) {
  for (const Block& b : blocks) {
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b.words) % 64, 0u);
  }
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.words < b.words;
  });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const Block& prev = blocks[i - 1];
    ASSERT_LT(line_of(prev.words + prev.n - 1), line_of(blocks[i].words))
        << "blocks " << i - 1 << " and " << i << " share a line";
  }
}

/// Bytes an n-word block occupies: whole 64-B lines of 8-B words.
std::size_t block_bytes(std::size_t n) { return (n * 8 + 63) / 64 * 64; }

TEST(Native, ArenaCarvesMixedAndOversizedBlocks) {
  NativeModel m(1);
  std::vector<Block> blocks;
  std::vector<std::uint64_t> tags;
  std::size_t words = 0;
  std::size_t bytes = 0;
  const auto add = [&](std::size_t n, std::uint64_t tag) {
    blocks.push_back({m.alloc(n, tag), n});
    tags.push_back(tag);
    words += n;
    bytes += block_bytes(n);
  };
  for (std::uint64_t i = 0; i < 300; ++i) add(1, 1000 + i);
  // 4 MiB in one request: larger than any chunk the arena has grown to, so
  // it must still come back as one contiguous run.
  add(std::size_t{1} << 19, 7);
  // Mixed sizes around the 8-word line: 1..7 words share one line, 8 fill
  // it exactly, 9..17 spill into a second and third.
  for (std::uint64_t i = 0; i < 300; ++i) add(1 + i % 17, 5000 + i);
  EXPECT_EQ(m.words_allocated(), words);
  EXPECT_EQ(m.bytes_allocated(), bytes);
  ExpectAlignedAndLineDisjoint(blocks);
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
  ExpectAlignedAndLineDisjoint(std::move(all));
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
  EXPECT_EQ(m.bytes_allocated(), 64 * (1 + logical));  // one line each

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

// --- the line layout of a recycled instance --------------------------------

/// NativeModel that remembers every block allocation it serves.
class RecordingModel : public NativeModel {
 public:
  explicit RecordingModel(Pid nprocs) : NativeModel(nprocs) {}

  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    return remember(NativeModel::alloc(n, init), n);
  }
  Word* alloc(std::initializer_list<std::uint64_t> inits) {
    return remember(NativeModel::alloc(inits), inits.size());
  }

  std::vector<Block> blocks;

 private:
  Word* remember(Word* w, std::size_t n) {
    blocks.push_back({w, n});
    return w;
  }
};

TEST(Native, VersionedRecordWordsShareOneLine) {
  RecordingModel m(2);
  core::VersionedSpace<RecordingModel> space(m, 2, 64);
  space.alloc(5, 3);
  space.alloc(1, 0);
  ASSERT_EQ(m.blocks.size(), 1u + 6);  // the version word, then six records
  for (std::size_t b = 1; b < m.blocks.size(); ++b) {
    const Block& rec = m.blocks[b];
    ASSERT_EQ(rec.n, 3u) << "V_w and two incarnations";
    EXPECT_EQ(line_of(&rec.words[0]), line_of(&rec.words[2]))
        << "record " << b - 1 << " spans two lines";
  }
  EXPECT_EQ(m.read(0, m.blocks[1].words[0]), 0u);  // V_w = (0, 0)
  EXPECT_EQ(m.read(0, m.blocks[1].words[1]), 3u);
  EXPECT_EQ(m.read(0, m.blocks[1].words[2]), 3u);
  ExpectAlignedAndLineDisjoint(m.blocks);
  // The lazy reset still works through the packed record.
  space.begin_session(0);
  auto* w = space.alloc(1, 7);
  space.write(0, *w, 8);
  space.next_incarnation(1);
  space.begin_session(1);
  EXPECT_EQ(space.read(1, *w), 7u);
}

TEST(Native, GoRecordsOfOneInstanceAreOnDistinctLines) {
  constexpr std::uint32_t kSlots = 16;
  RecordingModel m(kSlots);
  core::VersionedSpace<RecordingModel> space(m, kSlots, 64);
  core::OneShotLock<core::VersionedSpace<RecordingModel>> lock(space, kSlots,
                                                              64);
  // go[0..kSlots) are the instance's last records (after the tree, Tail,
  // Head and LastExited).
  ASSERT_GE(m.blocks.size(), kSlots + 4u);
  const std::vector<Block> go(m.blocks.end() - kSlots, m.blocks.end());
  std::vector<std::uintptr_t> lines;
  for (const Block& rec : go) {
    ASSERT_EQ(rec.n, 3u);
    for (std::size_t i = 0; i < rec.n; ++i) {
      EXPECT_EQ(line_of(&rec.words[i]), line_of(rec.words));
    }
    lines.push_back(line_of(rec.words));
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "two go[i] records share a line";
  EXPECT_EQ(m.read(0, go[0].words[1]), 1u);  // go = [1, 0, ..., 0]
  EXPECT_EQ(m.read(0, go[1].words[1]), 0u);
  ExpectAlignedAndLineDisjoint(m.blocks);
}

// One paper stripe at the default N = 64: 17,550 words (65 instances of one
// version word and 68 records, 64 x 65 spin nodes, 64 announce entries,
// LockDesc) on 8,710 lines = 557,440 B, against 17,550 lines with a line
// per word.
TEST(Native, PaperStripeAtN64Reserves8710Lines) {
  NativeModel m(64);
  core::LongLivedLock<NativeModel> lock(m, {.nprocs = 64, .w = 64});
  EXPECT_EQ(m.words_allocated(), 17550u);
  EXPECT_EQ(m.bytes_allocated(), 8710u * 64);
  EXPECT_EQ(m.bytes_allocated(), 557440u);
}

}  // namespace
}  // namespace aml::model
