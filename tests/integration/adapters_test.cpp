// The production-API adapters: RAII guards, TimerWheel deadlines, timed
// acquisition, and the std::mutex-compatible facade with its per-passage
// id leases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "aml/core/adapters.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/threading.hpp"

namespace aml {
namespace {

using namespace std::chrono_literals;

TEST(LockGuardTest, EntersAndExits) {
  AbortableLock lock(LockConfig{.max_threads = 2});
  {
    LockGuard guard(lock, 0);
    // Holding: a raised try from another id must abort.
    AbortSignal sig;
    sig.raise();
    EXPECT_FALSE(lock.enter(1, sig));
  }
  // Released: id 1 can acquire now.
  lock.enter(1);
  lock.exit(1);
}

TEST(TryGuardTest, OwnsReflectsOutcome) {
  AbortableLock lock(LockConfig{.max_threads = 2});
  AbortSignal free_sig;
  TryGuard ok(lock, 0, free_sig);
  EXPECT_TRUE(ok.owns());
  AbortSignal raised;
  raised.raise();
  {
    TryGuard blocked(lock, 1, raised);
    EXPECT_FALSE(blocked.owns());
  }
}

namespace {
// Poll helper: the host may be single-core and loaded, so fixed sleeps are
// flaky; wait up to a generous budget for the wheel thread to act.
bool eventually(const aml::AbortSignal& sig,
                std::chrono::milliseconds budget = 3s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sig.raised()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return sig.raised();
}
}  // namespace

TEST(TimerWheelTest, RaisesAtDeadline) {
  TimerWheel wheel;
  AbortSignal sig;
  wheel.arm(sig, TimerWheel::Clock::now() + 20ms);
  EXPECT_TRUE(eventually(sig));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelPreventsRaise) {
  TimerWheel wheel;
  AbortSignal sig;
  const auto token = wheel.arm(sig, TimerWheel::Clock::now() + 50ms);
  wheel.cancel(token);
  std::this_thread::sleep_for(80ms);
  EXPECT_FALSE(sig.raised());
}

TEST(TimerWheelTest, OrdersMultipleDeadlines) {
  TimerWheel wheel;
  AbortSignal early, late;
  wheel.arm(late, TimerWheel::Clock::now() + 60s);  // far future
  wheel.arm(early, TimerWheel::Clock::now() + 10ms);
  EXPECT_TRUE(eventually(early));
  EXPECT_FALSE(late.raised());
  EXPECT_EQ(wheel.pending(), 1u);  // the far deadline remains armed
}

// Earliest-fires-first under load: many deadlines armed in shuffled order
// with real spacing must raise strictly in deadline order. All of them sit
// in one shard here (one arming thread); the cross-shard variant is below.
TEST(TimerWheelTest, EarliestFiresFirstUnderLoad) {
  constexpr int kSignals = 16;
  TimerWheel wheel;
  std::deque<AbortSignal> signals(kSignals);
  // Deadline i = base + i * spacing; armed in a shuffled order so insertion
  // order and fire order disagree everywhere.
  const auto base = TimerWheel::Clock::now() + 30ms;
  const auto spacing = 15ms;
  std::vector<int> arm_order;
  for (int i = 0; i < kSignals; ++i) arm_order.push_back(i);
  std::mt19937 shuffle_rng(1234);
  std::shuffle(arm_order.begin(), arm_order.end(), shuffle_rng);
  for (const int i : arm_order) {
    wheel.arm(signals[i], base + i * spacing);
  }

  // Observe the raise order by polling with a DESCENDING scan: if signal i
  // is seen raised at its scan instant, every j < i fired before i (wheel
  // order) and is scanned after i, so it must also read raised in the same
  // sweep. A gap below the highest raised index is therefore a race-free
  // witness of out-of-order firing.
  const auto poll_deadline =
      TimerWheel::Clock::now() + 30ms + kSignals * spacing + 3s;
  for (;;) {
    int highest = -1;
    for (int i = kSignals - 1; i >= 0; --i) {
      const bool raised = signals[i].raised();
      if (raised && highest < 0) highest = i;
      if (!raised && i < highest) {
        FAIL() << "deadline " << highest << " fired before deadline " << i;
      }
    }
    if (highest == kSignals - 1) break;  // all fired, in order throughout
    ASSERT_LT(TimerWheel::Clock::now(), poll_deadline)
        << "a deadline never fired";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

// Interleaved arm/cancel storm from several threads: every cancelled-early
// entry must stay unraised, every kept deadline must fire, and the wheel
// must end empty — exercising each shard's entries and front across
// cancels of front and interior entries.
TEST(TimerWheelTest, InterleavedArmCancelStress) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPerThread = 64;
  TimerWheel wheel;
  std::deque<AbortSignal> kept(kThreads * kPerThread);
  std::deque<AbortSignal> cancelled(kThreads * kPerThread);

  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::size_t slot = t * kPerThread + i;
      // A near deadline we keep, and a far one we cancel immediately. The
      // pair lands on both sides of the wheel's current front, so cancels
      // hit front and interior entries alike.
      wheel.arm(kept[slot], TimerWheel::Clock::now() +
                                std::chrono::milliseconds(1 + (i % 7)));
      const auto token = wheel.arm(
          cancelled[slot], TimerWheel::Clock::now() + 60s + slot * 1ms);
      wheel.cancel(token);
    }
  });

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (std::size_t s = 0; s < kept.size(); ++s) {
    while (!kept[s].raised() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(kept[s].raised()) << "kept deadline " << s << " never fired";
  }
  for (std::size_t s = 0; s < cancelled.size(); ++s) {
    EXPECT_FALSE(cancelled[s].raised()) << "cancelled entry " << s << " fired";
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

// The cancel guarantee: once cancel(token) has returned, the wheel never
// raises that token's signal. Each round arms a batch of signals at one
// shared deadline and cancels them around the moment the wheel raises the
// batch; a signal read unraised after its cancel must stay unraised. A raise
// that lands after cancel (the wheel dropping the shard lock before raising)
// would abort the caller's next attempt on the same signal, and fails here.
TEST(TimerWheelTest, CancelIsFinalStress) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::size_t kBatch = 64;
  constexpr int kRounds = 4000;
  TimerWheel wheel;
  std::atomic<int> late_raises{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    std::vector<pal::CachePadded<AbortSignal>> signals(kBatch);
    std::vector<TimerWheel::Token> tokens(kBatch);
    std::vector<bool> unraised(kBatch);
    std::minstd_rand rng(t + 1);
    for (int round = 0; round < kRounds; ++round) {
      const auto when = TimerWheel::Clock::now() + 20us;
      for (std::size_t i = 0; i < kBatch; ++i) {
        signals[i]->reset();
        tokens[i] = wheel.arm(*signals[i], when);
      }
      // Cancel somewhere in [when, when + 80 us): the wheel's raise lands
      // in that span (its wakeup slack included) in most rounds.
      const auto cancel_at = when + std::chrono::microseconds(rng() % 80);
      while (TimerWheel::Clock::now() < cancel_at) {
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        wheel.cancel(tokens[i]);
        unraised[i] = !signals[i]->raised();
      }
      for (int spin = 0; spin < 2000; ++spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (unraised[i] && signals[i]->raised()) {
          late_raises.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(late_raises.load(), 0);
  EXPECT_EQ(wheel.pending(), 0u);
}

// Lost wake-up: an arm that lands while the wheel goes from its last raise
// to parking idle must still wake it. Two threads take turns: each waits
// for the other's deadline to fire, spins a random few cycles and arms its
// own near deadline from its own shard, so the arm falls before, during and
// after the wheel's publish-then-recheck and its wait. (One thread alone
// would queue on the shard lock the raising wheel holds, and always land
// after the publish.) Every 1024th round arms a wheel long parked.
TEST(TimerWheelTest, WakesFromIdleParkStress) {
  constexpr int kRounds = 40000;
  TimerWheel wheel;
  std::vector<pal::CachePadded<AbortSignal>> signals(2);
  std::atomic<int> turn{0}, lost_round{-1};
  pal::run_threads(2, [&](std::uint32_t t) {
    static constexpr std::uint32_t kSpinRanges[] = {1, 16, 64, 256};
    AbortSignal& sig = *signals[t];
    std::minstd_rand rng(5 + t);
    for (int round = static_cast<int>(t); round < kRounds; round += 2) {
      while (turn.load(std::memory_order_acquire) != round) {
        if (lost_round.load(std::memory_order_relaxed) >= 0) return;
      }
      if (round % 1024 == 1023) std::this_thread::sleep_for(200us);
      const std::uint32_t range = kSpinRanges[(round / 2) % 4];
      for (std::uint32_t spin = rng() % range; spin > 0; --spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      sig.reset();
      wheel.arm(sig, TimerWheel::Clock::now() +
                         std::chrono::microseconds(rng() % 4));
      const auto give_up = TimerWheel::Clock::now() + 2s;
      while (!sig.raised() && TimerWheel::Clock::now() < give_up) {
      }
      if (!sig.raised()) {
        lost_round.store(round, std::memory_order_relaxed);
        return;
      }
      turn.store(round + 1, std::memory_order_release);
    }
  });
  EXPECT_EQ(lost_round.load(), -1) << "a deadline armed then never fired";
  EXPECT_EQ(wheel.pending(), 0u);
}

// EarliestFiresFirstUnderLoad across shards: deadline i = base + i *
// spacing goes on a line-padded signal armed from its own thread (so from
// its own shard), and the descending-scan witness checks the fire order.
// Thread t arms the (kSignals - 1 - t)-th deadline: shards are handed out in
// the order threads first arm, so shard order mostly runs against deadline
// order.
TEST(TimerWheelTest, EarliestFiresFirstAcrossShardsStress) {
  constexpr std::uint32_t kSignals = 16;
  const auto spacing = 15ms;
  TimerWheel wheel;
  std::vector<pal::CachePadded<AbortSignal>> signals(kSignals);
  const auto base = TimerWheel::Clock::now() + 300ms;
  pal::run_threads(kSignals, [&](std::uint32_t t) {
    const std::uint32_t i = kSignals - 1 - t;
    wheel.arm(*signals[i], base + i * spacing);
  });
  if (TimerWheel::Clock::now() >= base) {
    GTEST_SKIP() << "host too slow to arm every deadline before the first";
  }
  const auto poll_deadline =
      TimerWheel::Clock::now() + 300ms + kSignals * spacing + 3s;
  for (;;) {
    int highest = -1;
    for (int i = kSignals - 1; i >= 0; --i) {
      const bool raised = signals[i]->raised();
      if (raised && highest < 0) highest = i;
      if (!raised && i < highest) {
        FAIL() << "deadline " << highest << " fired before deadline " << i;
      }
    }
    if (highest == static_cast<int>(kSignals) - 1) break;
    ASSERT_LT(TimerWheel::Clock::now(), poll_deadline)
        << "a deadline never fired";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

// Never early: whoever sees a signal raised reads the clock at or past its
// deadline.
TEST(TimerWheelTest, NeverRaisesBeforeDeadlineStress) {
  constexpr std::uint32_t kThreads = 3;
  constexpr int kRounds = 1500;
  TimerWheel wheel;
  std::vector<pal::CachePadded<AbortSignal>> signals(kThreads);
  std::atomic<int> early{0}, lost{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    AbortSignal& sig = *signals[t];
    std::minstd_rand rng(t + 7);
    for (int i = 0; i < kRounds; ++i) {
      sig.reset();
      const auto when =
          TimerWheel::Clock::now() + std::chrono::microseconds(rng() % 60);
      wheel.arm(sig, when);
      const auto give_up = when + 2s;
      while (!sig.raised()) {
        if (TimerWheel::Clock::now() > give_up) break;
      }
      const auto seen = TimerWheel::Clock::now();
      if (!sig.raised()) {
        lost.fetch_add(1, std::memory_order_relaxed);
      } else if (seen < when) {
        early.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(wheel.pending(), 0u);
}

// cancel_all removes every entry of its signal, on every shard, and no
// other: the other signal's entries stay pending and still fire.
TEST(TimerWheelTest, CancelAllRemovesOnlyThatSignalStress) {
  constexpr std::uint32_t kThreads = 3;
  constexpr int kPerThread = 5;
  TimerWheel wheel;
  AbortSignal victim, other;
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      wheel.arm(victim, TimerWheel::Clock::now() + 1h + i * 1ms);
      wheel.arm(other, TimerWheel::Clock::now() + 1h + t * 1ms);
    }
  });
  wheel.arm(other, TimerWheel::Clock::now() + 20ms);
  ASSERT_EQ(wheel.pending(), 2u * kThreads * kPerThread + 1);
  EXPECT_EQ(wheel.cancel_all(victim), std::size_t{kThreads * kPerThread});
  EXPECT_EQ(wheel.pending(), std::size_t{kThreads * kPerThread + 1});
  EXPECT_EQ(wheel.cancel_all(victim), 0u);
  EXPECT_TRUE(eventually(other));
  EXPECT_FALSE(victim.raised());
  EXPECT_EQ(wheel.pending(), std::size_t{kThreads * kPerThread});
}

TEST(TimedLockTest, SucceedsWhenFree) {
  TimedAbortableLock lock(LockConfig{.max_threads = 2});
  EXPECT_TRUE(lock.try_enter_for(0, 10ms));
  lock.exit(0);
}

TEST(TimedLockTest, TimesOutWhenHeld) {
  TimedAbortableLock lock(LockConfig{.max_threads = 2});
  lock.enter(0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(lock.try_enter_for(1, 15ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 14ms);
  EXPECT_LT(elapsed, 2s);
  lock.exit(0);
  EXPECT_TRUE(lock.try_enter_for(1, 15ms));
  lock.exit(1);
}

TEST(TimedLockTest, ContendedTimedAttempts) {
  constexpr std::uint32_t kThreads = 4;
  TimedAbortableLock lock(LockConfig{.max_threads = kThreads});
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> wins{0}, timeouts{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < 50; ++i) {
      if (lock.try_enter_for(t, 500us)) {
        if (in_cs.fetch_add(1) != 0) violation.store(true);
        in_cs.fetch_sub(1);
        lock.exit(t);
        wins.fetch_add(1);
      } else {
        timeouts.fetch_add(1);
      }
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(wins.load() + timeouts.load(), kThreads * 50u);
  EXPECT_GT(wins.load(), 0u);
}

TEST(StdAbortableMutexTest, WorksWithStdGuards) {
  StdAbortableMutex mutex(4);
  std::uint64_t counter = 0;
  pal::run_threads(4, [&](std::uint32_t) {
    for (int i = 0; i < 200; ++i) {
      std::lock_guard<StdAbortableMutex> guard(mutex);
      ++counter;
    }
  });
  EXPECT_EQ(counter, 800u);
}

TEST(StdAbortableMutexTest, TryLockSemantics) {
  StdAbortableMutex mutex(4);  // three distinct threads touch this mutex
  EXPECT_TRUE(mutex.try_lock());
  std::thread other([&] {
    // Held by the main thread: a try from another thread must fail fast.
    EXPECT_FALSE(mutex.try_lock());
  });
  other.join();
  mutex.unlock();
  std::thread third([&] {
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
  });
  third.join();
}

TEST(StdAbortableMutexTest, UniqueLockAdoptAndRelease) {
  StdAbortableMutex mutex(2);
  std::unique_lock<StdAbortableMutex> ul(mutex, std::defer_lock);
  EXPECT_FALSE(ul.owns_lock());
  ul.lock();
  EXPECT_TRUE(ul.owns_lock());
  ul.unlock();
  EXPECT_TRUE(ul.try_lock());
}

// Ids are leased per passage, not bound to threads for life: more threads
// than max_threads may use the mutex one after another (each id returns to
// the registry in unlock), and none of them aborts.
TEST(StdAbortableMutexTest, MoreSequentialThreadsThanIds) {
  StdAbortableMutex mutex(4);
  std::uint64_t counter = 0;
  for (int t = 0; t < 8; ++t) {
    std::thread worker([&] {
      // Fails (rather than hangs below) if an earlier thread kept its id.
      ASSERT_TRUE(mutex.try_lock());
      mutex.unlock();
      for (int i = 0; i < 10; ++i) {
        std::lock_guard<StdAbortableMutex> guard(mutex);
        ++counter;
      }
    });
    worker.join();
  }
  EXPECT_EQ(counter, 80u);
}

// With every id leased by a waiter or holder, try_lock fails instead of
// aborting, and lock() waits for an id rather than failing.
TEST(StdAbortableMutexTest, ExhaustedIdsMakeTryLockFailAndLockWait) {
  StdAbortableMutex mutex(1);
  mutex.lock();  // the only id is leased by this passage
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    EXPECT_FALSE(mutex.try_lock());
    mutex.lock();
    acquired.store(true);
    mutex.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  mutex.unlock();
  other.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(mutex.try_lock());  // the id came back
  mutex.unlock();
}

}  // namespace
}  // namespace aml
