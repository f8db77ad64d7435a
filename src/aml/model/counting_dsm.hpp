// CountingDsmModel: a simulated distributed shared memory implementing the
// paper's DSM RMR accounting (Section 2): every word is permanently local to
// one process (its owner) and remote to all others; any access (read or
// mutation) to a remote word is one RMR; accesses to local words are free.
//
// Busy-waiting on a *remote* word is the failure mode the paper's DSM lock
// variant exists to avoid: each re-check of a remote word is an RMR, and the
// number of re-checks is unbounded. The model surfaces this through the
// `remote_spin_episodes` counter (each wait() on a remote word counts one
// episode) in addition to charging an RMR per wakeup re-read; the DSM
// variant of the one-shot lock must keep episodes at zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

class CountingDsmModel {
 public:
  struct Word {
    std::atomic<std::uint32_t> lock{0};
    std::atomic<std::uint64_t> version{0};
    std::uint64_t value = 0;
    std::uint32_t id = 0;  ///< dense id, stable across replays (footprints)
    Pid owner = kNoPid;    ///< the process this word is local to
  };

  explicit CountingDsmModel(Pid nprocs)
      : nprocs_(nprocs), counters_(nprocs) {}

  CountingDsmModel(const CountingDsmModel&) = delete;
  CountingDsmModel& operator=(const CountingDsmModel&) = delete;

  Pid nprocs() const { return nprocs_; }

  void set_hook(ScheduleHook* hook) { hook_ = hook; }
  ScheduleHook* hook() const { return hook_; }

  /// Allocate `n` words local to `owner` (kNoPid = local to nobody, e.g.
  /// dynamically-assigned queue slots whose locality cannot be guaranteed).
  Word* alloc_owned(Pid owner, std::size_t n, std::uint64_t init = 0) {
    return alloc_block(owner, n, [init](std::size_t) { return init; });
  }

  /// Allocate a gated abort signal (see CountingCcModel::alloc_signal).
  Signal* alloc_signal() {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    signals_.emplace_back();
    Signal& s = signals_.back();
    s.id = next_id_++;
    signal_ids_.emplace(&s.flag, s.id);
    return &s;
  }

  /// Raise an abort signal as a gated, footprinted step of process `p`
  /// (see CountingCcModel::raise_signal).
  void raise_signal(Pid p, Signal& s) {
    gate(p, Footprint{s.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    s.flag.store(true, std::memory_order_release);
  }

  /// Footprint address of a stop flag; kNoAddr when unregistered.
  std::uint64_t signal_addr(const std::atomic<bool>* stop) const {
    if (stop == nullptr) return Footprint::kNoAddr;
    std::lock_guard<std::mutex> guard(alloc_mu_);
    const auto it = signal_ids_.find(stop);
    return it == signal_ids_.end() ? Footprint::kNoAddr : it->second;
  }

  /// Model-concept alloc: words local to nobody (always remote). The lock
  /// templates use this for central variables (Tail, Head, tree nodes, ...)
  /// whose accessor set is unbounded.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    return alloc_owned(kNoPid, n, init);
  }

  /// One block of words local to nobody, a word per entry of `inits` (see
  /// CountingCcModel's block alloc: ids as for one-at-a-time allocation).
  Word* alloc(std::initializer_list<std::uint64_t> inits) {
    return alloc_block(kNoPid, inits.size(),
                       [&inits](std::size_t i) { return inits.begin()[i]; });
  }

  std::uint64_t read(Pid p, Word& w) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kRead,
                      Footprint::Kind::kNone});
    const auto [value, version] = load_pair(w);
    (void)version;
    auto& c = counters(p);
    c.reads++;
    if (w.owner == p) {
      c.local_reads++;
    } else {
      c.rmrs++;
    }
    return value;
  }

  void write(Pid p, Word& w, std::uint64_t x) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    w.value = x;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
    auto& c = counters(p);
    c.writes++;
    if (w.owner != p) c.rmrs++;
  }

  std::uint64_t faa(Pid p, Word& w, std::uint64_t delta) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const std::uint64_t old = w.value;
    w.value = old + delta;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
    auto& c = counters(p);
    c.faas++;
    if (w.owner != p) c.rmrs++;
    return old;
  }

  bool cas(Pid p, Word& w, std::uint64_t expected, std::uint64_t desired) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const bool ok = (w.value == expected);
    if (ok) w.value = desired;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
    auto& c = counters(p);
    c.cas_attempts++;
    if (!ok) c.cas_failures++;
    if (w.owner != p) c.rmrs++;
    return ok;
  }

  std::uint64_t swap(Pid p, Word& w, std::uint64_t x) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const std::uint64_t old = w.value;
    w.value = x;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
    auto& c = counters(p);
    c.swaps++;
    if (w.owner != p) c.rmrs++;
    return old;
  }

  template <typename Pred>
  WaitOutcome wait(Pid p, Word& w, Pred&& pred, const std::atomic<bool>* stop) {
    const Footprint fp{w.id, signal_addr(stop), Footprint::Kind::kRead,
                       Footprint::Kind::kRead};
    bool first = true;
    for (;;) {
      gate(p, fp);
      const auto [value, version] = load_pair(w);
      auto& c = counters(p);
      c.reads++;
      if (w.owner == p) {
        c.local_reads++;
      } else {
        c.rmrs++;
        if (first) c.remote_spin_episodes++;
      }
      first = false;
      if (pred(value)) return {value, false};
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        return {value, true};
      }
      c.wait_wakeups++;
      block_until_changed(p, w, version, stop);
    }
  }

  /// Two-word busy-wait (see CountingCcModel::wait_either). In DSM each
  /// wakeup re-read of a remote word is an RMR; a wait on any remote word
  /// counts one remote-spin episode.
  template <typename Pred1, typename Pred2>
  WaitOutcome2 wait_either(Pid p, Word& w1, Pred1&& pred1, Word& w2,
                           Pred2&& pred2, const std::atomic<bool>* stop) {
    const std::uint64_t stop_addr = signal_addr(stop);
    const Footprint fp1{w1.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    const Footprint fp2{w2.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    bool first = true;
    for (;;) {
      gate(p, fp1);
      const auto [v1, ver1] = load_pair(w1);
      charge_read(p, w1, first);
      if (pred1(v1)) return {v1, 0, false};
      gate(p, fp2);
      const auto [v2, ver2] = load_pair(w2);
      charge_read(p, w2, first);
      first = false;
      if (pred2(v2)) return {v1, v2, false};
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        return {v1, v2, true};
      }
      counters(p).wait_wakeups++;
      if (hook_ != nullptr) {
        hook_->on_block(p, &w1.version, ver1, stop, &w2.version, ver2);
      } else {
        pal::Backoff backoff;
        while (w1.version.load(std::memory_order_acquire) == ver1 &&
               w2.version.load(std::memory_order_acquire) == ver2 &&
               !(stop != nullptr &&
                 stop->load(std::memory_order_acquire))) {
          backoff.pause();
        }
      }
    }
  }

  const OpCounters& counters(Pid p) const { return *counters_[p]; }
  OpCounters& counters(Pid p) { return *counters_[p]; }

  OpCounters total_counters() const {
    OpCounters total;
    for (Pid p = 0; p < nprocs_; ++p) total += *counters_[p];
    return total;
  }

  void reset_counters() {
    for (Pid p = 0; p < nprocs_; ++p) *counters_[p] = OpCounters{};
  }

  std::size_t words_allocated() const {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    return total_words_;
  }

  /// Harness-only: set a word without gating or accounting (see
  /// CountingCcModel::poke).
  void poke(Word& w, std::uint64_t x) {
    lock_word(w);
    w.value = x;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
  }

  std::uint64_t peek(const Word& w) const {
    Word& mut = const_cast<Word&>(w);
    lock_word(mut);
    const std::uint64_t v = mut.value;
    unlock_word(mut);
    return v;
  }

 private:
  /// Announce the step's footprint, then gate (see CountingCcModel::gate).
  void gate(Pid p, const Footprint& f) {
    if (hook_ != nullptr) {
      hook_->on_footprint(p, f);
      hook_->on_step(p);
    }
  }

  /// Read accounting for wait_either (episode counted once per wait on a
  /// remote word).
  void charge_read(Pid p, Word& w, bool first_round) {
    auto& c = counters(p);
    c.reads++;
    if (w.owner == p) {
      c.local_reads++;
    } else {
      c.rmrs++;
      if (first_round) c.remote_spin_episodes++;
    }
  }

  static void lock_word(Word& w) {
    pal::Backoff backoff;
    while (w.lock.exchange(1, std::memory_order_acquire) != 0) {
      backoff.pause();
    }
  }
  static void unlock_word(Word& w) {
    w.lock.store(0, std::memory_order_release);
  }

  static std::pair<std::uint64_t, std::uint64_t> load_pair(Word& w) {
    lock_word(w);
    const std::uint64_t value = w.value;
    const std::uint64_t version = w.version.load(std::memory_order_relaxed);
    unlock_word(w);
    return {value, version};
  }

  void block_until_changed(Pid p, Word& w, std::uint64_t seen_version,
                           const std::atomic<bool>* stop) {
    if (hook_ != nullptr) {
      hook_->on_block(p, &w.version, seen_version, stop);
      return;
    }
    pal::Backoff backoff;
    while (w.version.load(std::memory_order_acquire) == seen_version &&
           !(stop != nullptr && stop->load(std::memory_order_acquire))) {
      backoff.pause();
    }
  }

  template <typename Init>
  Word* alloc_block(Pid owner, std::size_t n, Init&& init) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    blocks_.emplace_back(n);
    std::vector<Word>& block = blocks_.back();
    for (std::size_t i = 0; i < n; ++i) {
      block[i].value = init(i);
      block[i].id = static_cast<std::uint32_t>(next_id_++);
      block[i].owner = owner;
    }
    total_words_ += n;
    return block.data();
  }

  Pid nprocs_;
  ScheduleHook* hook_ = nullptr;
  mutable std::mutex alloc_mu_;
  std::deque<std::vector<Word>> blocks_;  // one block per alloc; stable
  std::deque<Signal> signals_;            // stable addresses, ids in word space
  std::unordered_map<const std::atomic<bool>*, std::uint64_t> signal_ids_;
  std::size_t next_id_ = 0;
  std::size_t total_words_ = 0;
  std::vector<pal::CachePadded<OpCounters>> counters_;
};

}  // namespace aml::model
