// NativeModel: the production memory model. Words are std::atomic<uint64_t>
// laid out by the word policy below; operations map 1:1 to hardware atomics.
//
// The paper states its algorithms for a sequentially consistent atomic-
// register model, so the base vocabulary (read/write/faa/cas/swap) is
// seq_cst. On top of it the model exposes an *ordered* vocabulary —
// read_acq / read_rlx / write_rel / write_rlx and an acquire-spinning
// wait() — that the algorithms use only at call sites whose weaker order is
// justified by a named happens-before edge (see aml/pal/edges.hpp, the
// tools/edges.toml manifest, and docs/MEMORY_MODEL.md; amlint R8/R9 enforce
// the discipline). The ordered primitives here are the *carriers*: the
// concrete edge is named where they are called, and the carrier pair below
// is itself the `model.native.carrier` manifest entry, litmus-tested as a
// raw message-passing idiom in tests/litmus.
//
// BasicNativeModel<false> (alias NativeModelSeqCst) compiles every carrier
// back to seq_cst — the pre-relaxation baseline. bench_native_throughput
// runs both and gates the relaxed path against the seq_cst twin, so the
// relaxation's value stays measured, not assumed.
//
// The vocabulary lives in NativeOps, which ipc::ShmSpace shares; the model
// adds allocation, bump-allocating every word from one monotonic arena.
//
// Word policy: a NativeWord is one 8-B atomic, and every alloc() block
// starts on a fresh cache line and is padded to whole lines. So alloc(1) is
// one private line (every lock word the algorithms allocate alone: queue
// slots, spin nodes, announce entries, descriptors), and words a caller
// allocates together as one block share lines. The counting models charge
// RMRs per word; hardware charges per line, so packing is right exactly
// where the words of a block are written by the same processes at the same
// time (VersionedSpace's record of V_w and two incarnations) and wrong
// anywhere two processes would write neighbouring words. Callers choose by
// how they allocate; there is no second layout. ipc::ShmSpace keeps a
// line-padded word (PaddedNativeWord) so its segment layout is unchanged.
//
// This model performs no accounting; instantiating the lock templates with
// it yields the deployable library (aml::AbortableLock).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory_resource>
#include <mutex>
#include <new>
#include <type_traits>

#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/edges.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

/// One shared native word: 8 bytes. Line separation is a property of the
/// allocation block, not of the word (see the word policy above).
struct NativeWord {
  std::atomic<std::uint64_t> v{0};
};
static_assert(sizeof(NativeWord) == 8);
static_assert(std::is_trivially_destructible_v<NativeWord>,
              "the arena releases words without destroying them");

/// A native word alone on its cache line: ipc::ShmSpace's word, so that
/// every shared-segment word, block member or not, keeps its own line.
struct alignas(pal::kCacheLine) PaddedNativeWord {
  std::atomic<std::uint64_t> v{0};
};

/// The native operation vocabulary over words `W` (any type with an
/// `std::atomic<std::uint64_t> v`), independent of where the words live:
/// BasicNativeModel allocates NativeWords from a heap arena, ipc::ShmSpace
/// PaddedNativeWords from a shared segment.
///
/// `Relaxed` selects the memory-ordering regime of the ordered vocabulary:
/// true (the production default) lowers read_acq/write_rel/wait to real
/// acquire/release hardware orders; false lowers everything to seq_cst,
/// reproducing the conservative pre-relaxation model for A/B measurement.
template <bool Relaxed, typename W>
class NativeOps {
 public:
  using Word = W;

  explicit NativeOps(Pid nprocs) : nprocs_(nprocs) {}

  NativeOps(const NativeOps&) = delete;
  NativeOps& operator=(const NativeOps&) = delete;

  Pid nprocs() const { return nprocs_; }

  // --- base vocabulary (seq_cst, the paper's register model) -------------

  std::uint64_t read(Pid, Word& w) const {
    return w.v.load(std::memory_order_seq_cst);
  }

  void write(Pid, Word& w, std::uint64_t x) {
    w.v.store(x, std::memory_order_seq_cst);
  }

  std::uint64_t faa(Pid, Word& w, std::uint64_t delta) {
    return w.v.fetch_add(delta, std::memory_order_seq_cst);
  }

  bool cas(Pid, Word& w, std::uint64_t expected, std::uint64_t desired) {
    return w.v.compare_exchange_strong(expected, desired,
                                       std::memory_order_seq_cst);
  }

  std::uint64_t swap(Pid, Word& w, std::uint64_t x) {
    return w.v.exchange(x, std::memory_order_seq_cst);
  }

  // --- ordered vocabulary (edge carriers; see file header) ---------------

  /// Acquire-side carrier: the caller names the edge (amlint R8).
  std::uint64_t read_acq(Pid, Word& w) const {
    if constexpr (Relaxed) {
      return w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
    } else {
      return w.v.load(std::memory_order_seq_cst);
    }
  }

  /// Unordered read: only for values re-validated by a later synchronizing
  /// operation, or owner-local state (justified AML_RELAXED at call sites).
  std::uint64_t read_rlx(Pid, Word& w) const {
    if constexpr (Relaxed) {
      return w.v.load(std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
    } else {
      return w.v.load(std::memory_order_seq_cst);
    }
  }

  /// Release-side carrier: the caller names the edge (amlint R8).
  void write_rel(Pid, Word& w, std::uint64_t x) {
    if constexpr (Relaxed) {
      w.v.store(x, std::memory_order_release);  // AML_V_EDGE(model.native.carrier)
    } else {
      w.v.store(x, std::memory_order_seq_cst);
    }
  }

  /// Unordered write: pre-publication initialization or values published by
  /// a later release (justified AML_RELAXED at call sites).
  void write_rlx(Pid, Word& w, std::uint64_t x) {
    if constexpr (Relaxed) {
      w.v.store(x, std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
    } else {
      w.v.store(x, std::memory_order_seq_cst);
    }
  }

  /// Busy-wait until pred(value) holds or the stop flag is raised. The
  /// predicate is evaluated on fresh loads; lock hand-off wins ties with the
  /// stop flag.
  ///
  /// The spin load is the acquire side of every hand-off edge: the waiter
  /// leaves the loop only after observing a value some release-side store
  /// published, so everything sequenced before that store is visible here.
  /// Callers name the concrete edge (amlint R8 requires a tag on every
  /// wait() call in the covered paths).
  template <typename Pred>
  WaitOutcome wait(Pid, Word& w, Pred&& pred,
                   const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      std::uint64_t v;
      if constexpr (Relaxed) {
        v = w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      } else {
        v = w.v.load(std::memory_order_seq_cst);
      }
      if (pred(v)) return {v, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v, true};
      }
      backoff.pause();
    }
  }

  /// Two-word busy-wait (see CountingCcModel::wait_either).
  template <typename Pred1, typename Pred2>
  WaitOutcome2 wait_either(Pid, Word& w1, Pred1&& pred1, Word& w2,
                           Pred2&& pred2,
                           const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      std::uint64_t v1;
      std::uint64_t v2;
      if constexpr (Relaxed) {
        v1 = w1.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
        if (pred1(v1)) return {v1, 0, false};
        v2 = w2.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      } else {
        v1 = w1.v.load(std::memory_order_seq_cst);
        if (pred1(v1)) return {v1, 0, false};
        v2 = w2.v.load(std::memory_order_seq_cst);
      }
      if (pred2(v2)) return {v1, v2, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v1, v2, true};
      }
      backoff.pause();
    }
  }

 private:
  Pid nprocs_;
};

/// The in-process word space: NativeOps over 8-B words bump-allocated from
/// one monotonic arena. Words are never freed before the model is
/// destroyed, so a bump arena loses nothing, and consecutive allocations
/// (an instance's records, a spin-node pool) stay adjacent in memory
/// instead of scattering across one allocator block per request.
template <bool Relaxed>
class BasicNativeModel : public NativeOps<Relaxed, NativeWord> {
 public:
  using Word = NativeWord;

  explicit BasicNativeModel(Pid nprocs = 1)
      : NativeOps<Relaxed, NativeWord>(nprocs) {}

  /// Allocate `n` *contiguous* words initialized to `init`, as one block:
  /// it starts on a fresh cache line and is padded to whole lines, so it
  /// shares no line with any other block (a request larger than the
  /// arena's next chunk gets a chunk of its own). Addresses are stable for
  /// the model's lifetime and w[0..n) is valid pointer arithmetic. Safe to
  /// call concurrently.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    Word* block = carve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Pre-publication: the block escapes only through the caller's own
      // pointer; sharing it with other processes is the caller's edge.
      ::new (static_cast<void*>(block + i)) Word{init};
    }
    return block;
  }

  /// Allocate one block holding a word per entry of `inits`, each
  /// initialized to its entry (e.g. a lazily reset record, {0, init,
  /// init}). Same block contract as alloc(n, init).
  Word* alloc(std::initializer_list<std::uint64_t> inits) {
    Word* block = carve(inits.size());
    Word* w = block;
    for (const std::uint64_t init : inits) {
      ::new (static_cast<void*>(w++)) Word{init};  // pre-publication
    }
    return block;
  }

  /// Locality-annotated allocation (DSM vocabulary). Native hardware has no
  /// permanent locality, so this forwards to alloc(); it exists so that the
  /// DSM lock variant instantiates on every model.
  Word* alloc_owned(Pid /*owner*/, std::size_t n, std::uint64_t init = 0) {
    return alloc(n, init);
  }

  /// Number of words allocated so far (space-accounting hook shared with the
  /// counting models so bench_table1_space works on any model).
  std::size_t words_allocated() const {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    return total_words_;
  }

  /// Bytes the blocks occupy in the arena, padding included: whole cache
  /// lines, so bytes_allocated() / kCacheLine is the number of lines.
  std::size_t bytes_allocated() const {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    return total_bytes_;
  }

 private:
  /// Storage for an n-word block: line-aligned, whole lines.
  Word* carve(std::size_t n) {
    const std::size_t bytes =
        (n * sizeof(Word) + pal::kCacheLine - 1) & ~(pal::kCacheLine - 1);
    std::lock_guard<std::mutex> guard(alloc_mu_);
    total_words_ += n;
    total_bytes_ += bytes;
    return static_cast<Word*>(arena_.allocate(bytes, pal::kCacheLine));
  }

  mutable std::mutex alloc_mu_;
  /// Every word's storage; released only when the model is destroyed
  /// (see the static_assert on NativeWord).
  std::pmr::monotonic_buffer_resource arena_;
  std::size_t total_words_ = 0;
  std::size_t total_bytes_ = 0;
};

/// The production model: per-edge acquire/release on the justified paths.
using NativeModel = BasicNativeModel<true>;

/// The conservative twin: every carrier lowered to seq_cst. Exists for A/B
/// measurement (bench_native_throughput's relaxation gate) and for
/// bisecting a suspected ordering bug back to the strong baseline.
using NativeModelSeqCst = BasicNativeModel<false>;

}  // namespace aml::model
