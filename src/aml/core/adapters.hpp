// Ergonomic adapters around aml::AbortableLock:
//
//   * LockGuard / TryGuard     — RAII critical sections;
//   * TimerWheel               — one background thread that raises
//                                AbortSignals at deadlines (the watchdog
//                                pattern every timed-try-lock needs), with
//                                per-thread shards for arm/cancel;
//   * TimedAbortableLock       — try_enter_for / try_enter_until built from
//                                the lock's bounded-abort guarantee;
//   * StdAbortableMutex        — satisfies the standard Lockable concept
//                                (lock / try_lock / unlock), so it drops
//                                into std::lock_guard, std::unique_lock,
//                                std::scoped_lock; each passage leases its
//                                dense process id from a
//                                table::ThreadRegistry.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/table/thread_registry.hpp"

namespace aml {

/// RAII guard: enters in the constructor, exits in the destructor.
class LockGuard {
 public:
  LockGuard(AbortableLock& lock, std::uint32_t tid) : lock_(lock), tid_(tid) {
    lock_.enter(tid_);
  }
  ~LockGuard() { lock_.exit(tid_); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  AbortableLock& lock_;
  std::uint32_t tid_;
};

/// RAII guard for abortable acquisition: check owns() after construction.
class TryGuard {
 public:
  TryGuard(AbortableLock& lock, std::uint32_t tid, const AbortSignal& signal)
      : lock_(lock), tid_(tid), owns_(lock.enter(tid, signal)) {}
  ~TryGuard() {
    if (owns_) lock_.exit(tid_);
  }
  TryGuard(const TryGuard&) = delete;
  TryGuard& operator=(const TryGuard&) = delete;

  bool owns() const { return owns_; }
  explicit operator bool() const { return owns_; }

 private:
  AbortableLock& lock_;
  std::uint32_t tid_;
  bool owns_;
};

/// A single background thread that raises abort signals when their deadline
/// passes. Timed acquisitions bracket every enter with arm() and cancel(), so
/// those two calls sit on the acquisition path and share no lock between
/// threads:
///
///   * Shards. Entries live in kShards line-padded shards, each a mutex, an
///     unordered vector and an atomic `front` (its earliest deadline). arm()
///     uses the calling thread's shard (assigned round-robin on the thread's
///     first arm), and the token names the shard, so cancel() locks only
///     that one. cancel() erases by swap-pop and recomputes the front only
///     when the front entry goes. Vectors keep their capacity, so a steady state
///     allocates nothing. (Sharding by signal address would not spread:
///     stack-allocated signals of different threads collide modulo kShards.)
///   * Wake protocol (a store-load Dekker, both sides seq_cst). The wheel
///     publishes `sleep_until_`: kScanning while it scans, the deadline it
///     will sleep until, or kNever when parked idle. arm() stores its
///     shard's front, then loads `sleep_until_`, and wakes the wheel only if
///     its deadline is earlier. The wheel stores `sleep_until_`, then
///     rechecks every front before it sleeps; so either the wheel sees the
///     new front or arm() sees the published sleep and wakes it. The wake
///     sets a flag under the wake mutex, so a wake that lands before the
///     wheel's wait is not lost.
///   * Raise order and the cancel guarantee. A scan locks every due shard
///     in index order, takes out its due entries and raises them all in
///     (deadline, token) order before it unlocks. Raising under the shard
///     lock is what makes cancel() final: once cancel(token) has returned,
///     the wheel never raises that token's signal, so a late raise cannot
///     abort the caller's next attempt on the same signal. arm() and
///     cancel() take one lock each, so they cannot deadlock with the scan.
///
/// A deadline is never raised before `when`: a scan raises only entries due
/// at the clock reading it started with.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using Token = std::uint64_t;

  TimerWheel() : thread_([this] { run(); }) {}

  ~TimerWheel() {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      stop_ = true;
    }
    wake_cv_.notify_one();
    thread_.join();
  }

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Raise `signal` at (or as soon as possible after) `when`.
  Token arm(AbortSignal& signal, Clock::time_point when) {
    const std::uint32_t index = thread_shard();
    Shard& shard = *shards_[index];
    // Clamped below kNever, so a shard's front is kNever iff it is empty.
    const Rep at = std::min(when.time_since_epoch().count(), kNever - 1);
    Token token;
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      token = (shard.next_seq++ << kShardBits) | index;
      shard.entries.push_back(Entry{at, token, &signal});
      if (at < shard.front.load(std::memory_order_relaxed)) {  // AML_RELAXED(front is written only under shard.mu, held here)
        shard.front.store(at, std::memory_order_seq_cst);
      }
    }
    // Dekker with run(): front store above, sleep_until_ load here.
    if (at < sleep_until_->load(std::memory_order_seq_cst)) wake();
    return token;
  }

  /// Disarm `token`. Once this returns, the wheel never raises the token's
  /// signal; if the deadline already fired, the signal stays raised
  /// (callers reset() their signals between uses).
  void cancel(Token token) {
    Shard& shard = *shards_[token & (kShards - 1)];
    std::lock_guard<std::mutex> lk(shard.mu);
    auto& entries = shard.entries;
    for (std::size_t i = entries.size(); i-- > 0;) {
      if (entries[i].token != token) continue;
      const Rep at = entries[i].when;
      entries[i] = entries.back();
      entries.pop_back();
      if (at == shard.front.load(std::memory_order_relaxed)) refront(shard);  // AML_RELAXED(front is written only under shard.mu, held here)
      return;
    }
    // Not found: fired or cancelled already.
  }

  /// Disarm every pending deadline of `signal` (recovery treats a dead
  /// session's deadlines as cancelled); returns how many were removed. The
  /// same guarantee as cancel() holds for each.
  std::size_t cancel_all(const AbortSignal& signal) {
    std::size_t removed = 0;
    for (auto& padded : shards_) {
      Shard& shard = *padded;
      // An arm that happened before this call left the front below kNever
      // until its entry goes, so an empty-looking shard needs no lock.
      if (shard.front.load(std::memory_order_relaxed) == kNever) continue;  // AML_RELAXED(coherence: an arm that happens-before this call is seen)
      std::lock_guard<std::mutex> lk(shard.mu);
      const std::size_t n = std::erase_if(
          shard.entries, [&](const Entry& e) { return e.signal == &signal; });
      if (n > 0) refront(shard);
      removed += n;
    }
    return removed;
  }

  std::size_t pending() const {
    std::size_t total = 0;
    for (const auto& padded : shards_) {
      std::lock_guard<std::mutex> lk(padded->mu);
      total += padded->entries.size();
    }
    return total;
  }

 private:
  using Rep = Clock::rep;
  static constexpr std::uint32_t kShardBits = 6;
  static constexpr std::uint32_t kShards = 1u << kShardBits;
  /// Front of an empty shard, and sleep_until_ while the wheel is parked.
  static constexpr Rep kNever = std::numeric_limits<Rep>::max();
  /// sleep_until_ while the wheel scans: no deadline is earlier, so arm()
  /// never wakes a wheel that will recheck the fronts anyway.
  static constexpr Rep kScanning = std::numeric_limits<Rep>::min();

  struct Entry {
    Rep when;
    Token token;  ///< (per-shard sequence << kShardBits) | shard index
    AbortSignal* signal;
  };

  struct Shard {
    mutable std::mutex mu;
    pal::LineVector<Entry> entries;  ///< unordered; guarded by mu
    Token next_seq = 1;              ///< guarded by mu
    /// Earliest deadline in `entries` (kNever when empty). Written only
    /// under mu; read by the wheel without it.
    std::atomic<Rep> front{kNever};
  };

  /// The calling thread's shard, assigned round-robin on first use.
  static std::uint32_t thread_shard() {
    thread_local const std::uint32_t index =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % kShards;  // AML_RELAXED(spreads threads over shards; any value is correct)
    return index;
  }

  /// Recompute `shard.front` after entries left it (caller holds mu). A
  /// removal never lowers the front, and a stale lower front only makes the
  /// wheel look early, so this store needs no order; only arm()'s lowering
  /// store is half of the Dekker.
  static void refront(Shard& shard) {
    Rep front = kNever;
    for (const Entry& e : shard.entries) front = std::min(front, e.when);
    shard.front.store(front, std::memory_order_relaxed);  // AML_RELAXED(raises the front only; see the comment above)
  }

  Rep earliest_front() const {
    Rep earliest = kNever;
    for (const auto& padded : shards_) {
      earliest =
          std::min(earliest, padded->front.load(std::memory_order_seq_cst));
    }
    return earliest;
  }

  void wake() {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      woken_ = true;
    }
    wake_cv_.notify_one();
  }

  /// Lock every shard with a due front (in index order), raise its due
  /// entries in (deadline, token) order, then unlock.
  void raise_due(Rep now) {
    std::uint64_t held = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      Shard& shard = *shards_[s];
      if (shard.front.load(std::memory_order_seq_cst) > now) continue;
      shard.mu.lock();
      held |= std::uint64_t{1} << s;
      const auto due = [now](const Entry& e) { return e.when <= now; };
      std::copy_if(shard.entries.begin(), shard.entries.end(),
                   std::back_inserter(due_), due);
      std::erase_if(shard.entries, due);
      refront(shard);
    }
    std::sort(due_.begin(), due_.end(), [](const Entry& a, const Entry& b) {
      return a.when != b.when ? a.when < b.when : a.token < b.token;
    });
    for (const Entry& e : due_) e.signal->raise();
    due_.clear();
    for (std::uint32_t s = 0; s < kShards; ++s) {
      if ((held >> s) & 1u) shards_[s]->mu.unlock();
    }
  }

  void run() {
    for (;;) {
      sleep_until_->store(kScanning, std::memory_order_seq_cst);
      raise_due(Clock::now().time_since_epoch().count());
      const Rep next = earliest_front();
      // Dekker with arm(): publish the sleep, then recheck every front. An
      // arm() that lowered a front after the first read either shows here
      // or loads this sleep_until_ and wakes the wheel.
      sleep_until_->store(next, std::memory_order_seq_cst);
      if (earliest_front() < next) continue;
      std::unique_lock<std::mutex> lk(wake_mu_);
      const auto woken = [this] { return woken_ || stop_; };
      if (next == kNever) {
        wake_cv_.wait(lk, woken);
      } else {
        wake_cv_.wait_until(lk, Clock::time_point(Clock::duration(next)),
                            woken);
      }
      if (stop_) return;
      woken_ = false;
    }
  }

  inline static std::atomic<std::uint32_t> next_shard_{0};
  std::array<pal::CachePadded<Shard>, kShards> shards_;
  /// kScanning, the wheel's wakeup deadline, or kNever; read by every arm().
  pal::CachePadded<std::atomic<Rep>> sleep_until_{kScanning};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool woken_ = false;  ///< guarded by wake_mu_
  bool stop_ = false;   ///< guarded by wake_mu_
  std::vector<Entry> due_;  ///< wheel thread only; keeps its capacity
  // Declared LAST: members initialize in declaration order, and the wheel
  // thread must only start once every field above is constructed.
  std::thread thread_;
};

/// AbortableLock plus deadline-based acquisition. Each thread id owns a
/// dedicated signal slot, so concurrent timed attempts do not interfere.
class TimedAbortableLock {
 public:
  explicit TimedAbortableLock(LockConfig config = {})
      : lock_(config), signals_(config.max_threads) {}

  bool try_enter_for(std::uint32_t tid, std::chrono::nanoseconds budget) {
    return try_enter_until(tid, TimerWheel::Clock::now() + budget);
  }

  bool try_enter_until(std::uint32_t tid, TimerWheel::Clock::time_point when) {
    AbortSignal& signal = *signals_[tid];
    signal.reset();
    const TimerWheel::Token token = wheel_.arm(signal, when);
    const bool ok = lock_.enter(tid, signal);
    wheel_.cancel(token);
    return ok;
  }

  void enter(std::uint32_t tid) { lock_.enter(tid); }
  void exit(std::uint32_t tid) { lock_.exit(tid); }

 private:
  AbortableLock lock_;
  /// Padded: each waiter spins on its own flag while other attempts reset
  /// theirs.
  std::vector<pal::CachePadded<AbortSignal>> signals_;
  TimerWheel wheel_;
};

/// Standard-Lockable facade: usable with std::lock_guard / std::unique_lock
/// / std::scoped_lock. Each passage leases a dense id from a
/// table::ThreadRegistry for its duration and returns it in unlock(), so
/// any number of threads may use the mutex over time; at most
/// `max_threads` are inside lock()/try_lock() at once, and lock() waits for
/// a free id when all are leased. try_lock() runs an acquisition attempt
/// with a pre-raised signal: by bounded abort it returns in a bounded number
/// of steps, acquiring only if the lock is handed over essentially
/// immediately — and it fails at once when no id is free.
class StdAbortableMutex {
 public:
  explicit StdAbortableMutex(std::uint32_t max_threads = 64)
      : ids_(max_threads), lock_(LockConfig{.max_threads = max_threads}) {}

  void lock() {
    pal::Backoff backoff;
    std::uint32_t id;
    while ((id = ids_.try_lease()) == table::ThreadRegistry::kNoId) {
      backoff.pause();
    }
    lock_.enter(id);
    holder_ = id;
  }

  /// The passage's id is recorded in the mutex while it is held, so the
  /// unlocking thread need not be the locking one.
  void unlock() {
    const std::uint32_t id = holder_;
    lock_.exit(id);
    ids_.release(id);
  }

  bool try_lock() {
    const std::uint32_t id = ids_.try_lease();
    if (id == table::ThreadRegistry::kNoId) return false;
    AbortSignal signal;
    signal.raise();
    if (!lock_.enter(id, signal)) {
      ids_.release(id);
      return false;
    }
    holder_ = id;
    return true;
  }

 private:
  table::ThreadRegistry ids_;
  AbortableLock lock_;
  std::uint32_t holder_ = 0;  ///< written and read only under the lock
};

}  // namespace aml
