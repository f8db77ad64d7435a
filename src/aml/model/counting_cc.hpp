// CountingCcModel: a simulated cache-coherent shared memory that implements
// the paper's RMR accounting (Section 2) *by definition* rather than by
// hardware approximation:
//
//   - every write, CAS (successful or not), F&A, or SWAP incurs one RMR and
//     invalidates every other process' cached copy of the word;
//   - a read incurs one RMR iff it is the process' first access to the word
//     or the word was mutated since the process' last access; otherwise it is
//     a free local read;
//   - a process' own mutation leaves its own cached copy valid (the line is
//     in the modified state in its cache).
//
// Implementation: each word carries a version counter bumped on every
// mutation; each process keeps a private map word-id -> last version seen.
// A tiny per-word spinlock makes (value, version) updates atomic; the model
// is linearizable, so algorithms observe exactly the atomic-register
// semantics the paper assumes.
//
// A ScheduleHook may be installed to gate every operation, which the
// deterministic scheduler (aml/sched) uses to serialize and replay
// executions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

class CountingCcModel {
 public:
  struct Word {
    std::atomic<std::uint32_t> lock{0};     ///< word spinlock
    std::atomic<std::uint64_t> version{0};  ///< bumped on every mutation
    std::uint64_t value = 0;                ///< guarded by `lock`
    std::uint32_t id = 0;                   ///< dense id for cache indexing
  };

  explicit CountingCcModel(Pid nprocs)
      : nprocs_(nprocs), counters_(nprocs), caches_(nprocs) {}

  CountingCcModel(const CountingCcModel&) = delete;
  CountingCcModel& operator=(const CountingCcModel&) = delete;

  Pid nprocs() const { return nprocs_; }

  /// Install (or clear) the scheduler gate. Must not race with operations.
  void set_hook(ScheduleHook* hook) { hook_ = hook; }
  ScheduleHook* hook() const { return hook_; }

  /// Allocate `n` *contiguous* words initialized to `init`. Each request
  /// gets its own block (a vector inside a deque of blocks), so returned
  /// pointers are stable for the model's lifetime and w[0..n) is valid
  /// pointer arithmetic.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    return alloc_block(n, [init](std::size_t) { return init; });
  }

  /// Allocate one block holding a word per entry of `inits` (e.g. a lazily
  /// reset record, {0, init, init}). Ids are consecutive exactly as for the
  /// same words allocated one alloc(1) at a time, so RMR accounting and
  /// step footprints do not depend on how a caller groups its words.
  Word* alloc(std::initializer_list<std::uint64_t> inits) {
    return alloc_block(inits.size(),
                       [&inits](std::size_t i) { return inits.begin()[i]; });
  }

  /// Locality-annotated allocation (DSM vocabulary). The CC model has no
  /// permanent locality (caching handles it), so this forwards to alloc().
  Word* alloc_owned(Pid /*owner*/, std::size_t n, std::uint64_t init = 0) {
    return alloc(n, init);
  }

  /// Allocate a gated abort signal (model::Signal). The signal's id is drawn
  /// from the same address space as word ids so step footprints can name it;
  /// the returned pointer is stable for the model's lifetime.
  Signal* alloc_signal() {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    signals_.emplace_back();
    Signal& s = signals_.back();
    s.id = next_id_++;
    signal_ids_.emplace(&s.flag, s.id);
    return &s;
  }

  /// Raise an abort signal as a gated, footprinted step of process `p`.
  /// This is the adversary's action in the paper's model (no RMR charge),
  /// but unlike a plain atomic store it is visible to the scheduler and to
  /// partial-order reduction: the raise conflicts with every wait watching
  /// the signal, so reduced exploration still reorders abort deliveries
  /// against the waits they interrupt.
  void raise_signal(Pid p, Signal& s) {
    gate(p, Footprint{s.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    s.flag.store(true, std::memory_order_release);
  }

  /// Footprint address of a stop flag: the signal id if `stop` belongs to a
  /// Signal allocated from this model, kNoAddr otherwise (plain atomics stay
  /// usable, they are just invisible to reduction).
  std::uint64_t signal_addr(const std::atomic<bool>* stop) const {
    if (stop == nullptr) return Footprint::kNoAddr;
    std::lock_guard<std::mutex> guard(alloc_mu_);
    const auto it = signal_ids_.find(stop);
    return it == signal_ids_.end() ? Footprint::kNoAddr : it->second;
  }

  std::uint64_t read(Pid p, Word& w) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kRead,
                      Footprint::Kind::kNone});
    const auto [value, version] = load_pair(w);
    account_read(p, w, version);
    return value;
  }

  void write(Pid p, Word& w, std::uint64_t x) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    w.value = x;
    const std::uint64_t nv =
        w.version.fetch_add(1, std::memory_order_release) + 1;
    unlock_word(w);
    auto& c = counters(p);
    c.writes++;
    c.rmrs++;
    cache_set(p, w, nv);
  }

  std::uint64_t faa(Pid p, Word& w, std::uint64_t delta) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const std::uint64_t old = w.value;
    w.value = old + delta;
    const std::uint64_t nv =
        w.version.fetch_add(1, std::memory_order_release) + 1;
    unlock_word(w);
    auto& c = counters(p);
    c.faas++;
    c.rmrs++;
    cache_set(p, w, nv);
    return old;
  }

  bool cas(Pid p, Word& w, std::uint64_t expected, std::uint64_t desired) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const bool ok = (w.value == expected);
    if (ok) w.value = desired;
    // Per the paper's model a CAS invalidates readers whether or not it
    // succeeds ("another process performed a write, CAS, or F&A to w").
    const std::uint64_t nv =
        w.version.fetch_add(1, std::memory_order_release) + 1;
    unlock_word(w);
    auto& c = counters(p);
    c.cas_attempts++;
    if (!ok) c.cas_failures++;
    c.rmrs++;
    cache_set(p, w, nv);
    return ok;
  }

  std::uint64_t swap(Pid p, Word& w, std::uint64_t x) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const std::uint64_t old = w.value;
    w.value = x;
    const std::uint64_t nv =
        w.version.fetch_add(1, std::memory_order_release) + 1;
    unlock_word(w);
    auto& c = counters(p);
    c.swaps++;
    c.rmrs++;
    cache_set(p, w, nv);
    return old;
  }

  /// Busy-wait until pred(value) holds or the stop flag is raised. While the
  /// process' cached copy stays valid, re-checks are local (free); each
  /// invalidation-triggered re-read costs one RMR, exactly the CC busy-wait
  /// cost model the paper charges.
  template <typename Pred>
  WaitOutcome wait(Pid p, Word& w, Pred&& pred, const std::atomic<bool>* stop) {
    // The wait also reads the stop flag, so the step footprint carries the
    // signal's address (when registered): a concurrent raise_signal is then
    // a dependent step and reduction explores both orderings.
    const Footprint fp{w.id, signal_addr(stop), Footprint::Kind::kRead,
                       Footprint::Kind::kRead};
    for (;;) {
      gate(p, fp);
      const auto [value, version] = load_pair(w);
      account_read(p, w, version);
      if (pred(value)) return {value, false};
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        return {value, true};
      }
      counters(p).wait_wakeups++;
      block_until_changed(p, w, version, stop);
    }
  }

  /// Busy-wait on TWO words: return as soon as pred1(value of w1) or
  /// pred2(value of w2) holds, or the stop flag is raised with neither
  /// predicate true. Needed by read/write-only algorithms (Peterson locks)
  /// whose exit condition spans two variables. RMR accounting is identical
  /// to wait(): re-checks are local until one of the words is invalidated.
  template <typename Pred1, typename Pred2>
  WaitOutcome2 wait_either(Pid p, Word& w1, Pred1&& pred1, Word& w2,
                           Pred2&& pred2, const std::atomic<bool>* stop) {
    const std::uint64_t stop_addr = signal_addr(stop);
    const Footprint fp1{w1.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    const Footprint fp2{w2.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    for (;;) {
      gate(p, fp1);
      const auto [v1, ver1] = load_pair(w1);
      account_read(p, w1, ver1);
      if (pred1(v1)) return {v1, 0, false};
      gate(p, fp2);
      const auto [v2, ver2] = load_pair(w2);
      account_read(p, w2, ver2);
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

  // --- accounting -----------------------------------------------------

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
    return next_id_;
  }

  /// Harness-only: set a word without gating or accounting. Used by
  /// scheduler callbacks (which are not processes) to open coordination
  /// gates; bumps the version so parked waiters become runnable.
  void poke(Word& w, std::uint64_t x) {
    lock_word(w);
    w.value = x;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
  }

  /// Test probe: current value of a word without accounting or gating.
  std::uint64_t peek(const Word& w) const {
    Word& mut = const_cast<Word&>(w);
    lock_word(mut);
    const std::uint64_t v = mut.value;
    unlock_word(mut);
    return v;
  }

 private:
  /// Announce the step's footprint, then gate. The announcement always
  /// precedes the matching on_step() so a scheduler can attach the footprint
  /// to the grant decision it is about to make.
  void gate(Pid p, const Footprint& f) {
    if (hook_ != nullptr) {
      hook_->on_footprint(p, f);
      hook_->on_step(p);
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

  /// Atomically read (value, version).
  static std::pair<std::uint64_t, std::uint64_t> load_pair(Word& w) {
    lock_word(w);
    const std::uint64_t value = w.value;
    const std::uint64_t version = w.version.load(std::memory_order_relaxed);
    unlock_word(w);
    return {value, version};
  }

  /// Charge a read of word `w` at version `version` to process p.
  /// The per-process cache table is sparse: a process only ever caches the
  /// words it touched, which for this paper's algorithms is O(log_W N) per
  /// passage — a dense table over all words would dominate memory at
  /// N = 4096-process simulations.
  void account_read(Pid p, Word& w, std::uint64_t version) {
    auto& c = counters(p);
    c.reads++;
    auto& cache = *caches_[p];
    auto [it, inserted] = cache.try_emplace(w.id, version + 1);
    if (!inserted && it->second == version + 1) {
      c.local_reads++;
    } else {
      c.rmrs++;
      it->second = version + 1;
    }
  }

  /// Mark p's cached copy valid at version `version` (after p's own
  /// mutation: the line is in p's cache in modified state).
  void cache_set(Pid p, Word& w, std::uint64_t version) {
    (*caches_[p])[w.id] = version + 1;
  }

  /// Park until the word is mutated past `seen_version` or the stop flag is
  /// raised. Delegates to the scheduler hook when installed.
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

  Pid nprocs_;
  ScheduleHook* hook_ = nullptr;
  template <typename Init>
  Word* alloc_block(std::size_t n, Init&& init) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    blocks_.emplace_back(n);
    std::vector<Word>& block = blocks_.back();
    for (std::size_t i = 0; i < n; ++i) {
      block[i].value = init(i);
      block[i].id = static_cast<std::uint32_t>(next_id_++);
    }
    return block.data();
  }

  mutable std::mutex alloc_mu_;
  std::deque<std::vector<Word>> blocks_;  // one block per alloc; stable
  std::deque<Signal> signals_;            // stable addresses, ids in word space
  std::unordered_map<const std::atomic<bool>*, std::uint64_t> signal_ids_;
  std::size_t next_id_ = 0;
  std::vector<pal::CachePadded<OpCounters>> counters_;
  // Per-process cache-validity table, touched only by the owning process.
  std::vector<pal::CachePadded<std::unordered_map<std::uint32_t, std::uint64_t>>>
      caches_;
};

}  // namespace aml::model
