// Lazy-reset word space for recycling one-shot lock instances (Section 6.2,
// "Recycling one-shot locks").
//
// A one-shot lock instance must be reset to its initial values before reuse,
// but a single O(s(N))-RMR reset would break the transformation's RMR bound.
// Following the paper (which borrows from Aghazadeh, Golab & Woelfel's
// resettable-objects scheme without stealing bits from the payload words):
//
//   * each logical word w is backed by a version word V_w = (v_w, b_w) and
//     two incarnations w_0, w_1;
//   * the invariant is that w's *next* incarnation w_{1-b_w} always contains
//     w's initial value;
//   * the instance has a current version v, bumped by the recycler on each
//     reuse; a process reads v once per acquisition (begin_session, +O(1)
//     RMRs);
//   * on its first access to w in a session, a process reads V_w; if
//     v_w == v it uses w_{b_w}; otherwise it CASes V_w to (v, 1-b_w), resets
//     the stale w_{b_w} to the initial value (preparing the *next*
//     incarnation), and uses w_{1-b_w}. Losers of the CAS re-read V_w, which
//     then holds the current version. Subsequent accesses in the session use
//     the resolved incarnation directly (cached process-locally);
//   * to defeat version wraparound (v_w lives in W-1 bits of a W-bit word),
//     the recycler eagerly resets ceil(s / 2^(W-1)) words per reuse with a
//     rotating cursor, so every word is fully reset at least once per
//     wraparound period. This adds O(s(N)/2^W) = O(1) RMRs per reuse.
//
// The space exposes the same read/write/faa/wait vocabulary as a memory
// model, so Tree and OneShotLock instantiate over it unchanged.
//
// Word policy: each logical word's record (V_w, w_0, w_1) is allocated as
// one model block, M::alloc({0, init, init}), so on the native model the
// three words share one cache line and each record has a line of its own
// (ipc::ShmSpace pads every word, so there a record is still three lines).
// Every passage starts a fresh session and resolves V_w before touching an
// incarnation, so packing turns three line transfers per logical word into
// one; a lone logical word (each go[i], each tree node) still gets a
// private line, as the CC model assumes of separately allocated words.
//
// Local spinning survives the packing. A process spinning on go[i]
// resolved that record before it started spinning, and V_w already holds
// the session version, so nobody writes V_w again this session. While it
// spins, the writes to its line are the grant itself and, at most once, the
// stale-incarnation reset by a process whose V_w CAS beat the spinner's own
// resolution: O(1) invalidations per session, as with separate lines. The
// recycler's eager reset (next_incarnation) writes only records of a
// quiescent instance, one it holds and nobody has joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory_resource>
#include <new>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/bits.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::core {

using model::Pid;

template <typename M>
class VersionedSpace {
 public:
  /// Handle to a logical word: an index into the space's tables. Stable.
  struct Word {
    std::uint32_t idx;
  };

  /// `w` is the word width: the version field of V_w has w-1 bits (the low
  /// bit is the incarnation bit), matching the paper's W-bit words.
  VersionedSpace(M& mem, Pid nprocs, std::uint32_t w)
      : mem_(mem),
        nprocs_(nprocs),
        version_mask_((w >= 64 ? ~std::uint64_t{0} : pal::empty_word(w)) >> 1),
        procs_(nprocs) {
    AML_ASSERT(w >= 2 && w <= 64, "W must be in [2, 64]");
    version_word_ = mem_.alloc(1, 0);
  }

  VersionedSpace(const VersionedSpace&) = delete;
  VersionedSpace& operator=(const VersionedSpace&) = delete;

  /// Allocate `n` logical words with initial value `init`. Only valid before
  /// the instance becomes shared (construction time). Each logical word's
  /// record is one model block (see the word policy above). The returned
  /// handles are contiguous and stable: each alloc carves its own handle
  /// block from the space's handle arena.
  Word* alloc(std::size_t n, std::uint64_t init) {
    const std::size_t base = records_.size();
    for (std::size_t i = 0; i < n; ++i) {
      // V_w = (version 0, incarnation 0), then the two incarnations.
      records_.push_back(Record{mem_.alloc({0, init, init}), init});
    }
    Word* block =
        static_cast<Word*>(handles_.allocate(n * sizeof(Word), alignof(Word)));
    for (std::size_t i = 0; i < n; ++i) {
      ::new (static_cast<void*>(block + i))
          Word{static_cast<std::uint32_t>(base + i)};
    }
    return block;
  }

  /// DSM vocabulary passthrough (recycled instances are CC-only in the
  /// paper, but this keeps the space a drop-in word space).
  Word* alloc_owned(Pid /*owner*/, std::size_t n, std::uint64_t init) {
    return alloc(n, init);
  }

  // --- session management ----------------------------------------------

  /// Read the instance's current version. Every process must call this once
  /// after its F&A on LockDesc made the instance's use safe (Claim 24) and
  /// before any other access. Costs O(1) RMRs.
  void begin_session(Pid self) {
    ProcState& me = *procs_[self];
    me.current = mem_.read(self, *version_word_);
    me.epoch++;
  }

  /// Recycler-only: advance to the next incarnation. The caller must have
  /// exclusive, quiescent access to the instance (it holds the replaced
  /// instance, or is about to install this one while refcnt is 0). Performs
  /// the wraparound quota of eager resets.
  void next_incarnation(Pid self) {
    const std::uint64_t v =
        (mem_.read(self, *version_word_) + 1) & version_mask_;
    mem_.write(self, *version_word_, v);
    incarnations_++;
    // Eager reset quota: ceil(s / 2^(W-1)) words per reuse.
    const std::uint64_t period = version_mask_ + 1;
    std::uint64_t quota =
        (records_.size() + period - 1) / period;
    for (std::uint64_t k = 0; k < quota && !records_.empty(); ++k) {
      Record& rec = records_[cursor_ % records_.size()];
      cursor_++;
      mem_.write(self, rec.inc(0), rec.init);
      mem_.write(self, rec.inc(1), rec.init);
      mem_.write(self, rec.vw(), (v << 1) | 0);  // (v, b=0), both incs initial
    }
  }

  /// Total reuses so far (introspection).
  std::uint64_t incarnations() const { return incarnations_; }

  std::size_t logical_words() const { return records_.size(); }

  // --- oracle probes (no gating, no accounting; scheduler-thread safe) --

  /// Current instance version (the recycler-bumped word).
  std::uint64_t peek_version() const { return mem_.peek(*version_word_); }
  /// Raw V_w = (v_w << 1) | b_w of logical word `idx`.
  std::uint64_t peek_vw(std::size_t idx) const {
    return mem_.peek(records_[idx].vw());
  }
  std::uint64_t version_mask() const { return version_mask_; }

  // --- model vocabulary --------------------------------------------------

  std::uint64_t read(Pid self, Word& w) {
    return mem_.read(self, resolve(self, w));
  }

  void write(Pid self, Word& w, std::uint64_t x) {
    mem_.write(self, resolve(self, w), x);
  }

  std::uint64_t faa(Pid self, Word& w, std::uint64_t delta) {
    return mem_.faa(self, resolve(self, w), delta);
  }

  template <typename Pred>
  model::WaitOutcome wait(Pid self, Word& w, Pred&& pred,
                          const std::atomic<bool>* stop) {
    // Spin loads inherit the model's acquire carrier (see native.hpp).
    return mem_.wait(self, resolve(self, w),  // AML_X_EDGE(model.native.carrier)
                     static_cast<Pred&&>(pred), stop);
  }

  // Ordered forwarders: resolution itself synchronizes via seq_cst CAS; the
  // resolved incarnation word then carries the caller's edge through the
  // model's ordered vocabulary (identity fallback on counting models).

  std::uint64_t read_acq(Pid self, Word& w) {
    return model::ord::read_acq(mem_, self, resolve(self, w));  // AML_X_EDGE(model.native.carrier)
  }

  std::uint64_t read_rlx(Pid self, Word& w) {
    return model::ord::read_rlx(mem_, self, resolve(self, w));  // AML_RELAXED(forwarder; justification at outer call site)
  }

  void write_rel(Pid self, Word& w, std::uint64_t x) {
    model::ord::write_rel(mem_, self, resolve(self, w), x);  // AML_V_EDGE(model.native.carrier)
  }

  void write_rlx(Pid self, Word& w, std::uint64_t x) {
    model::ord::write_rlx(mem_, self, resolve(self, w), x);  // AML_RELAXED(forwarder; justification at outer call site)
  }

 private:
  /// One logical word: its block {V_w, w_0, w_1} and its initial value.
  struct Record {
    typename M::Word* words;
    std::uint64_t init;

    typename M::Word& vw() const { return words[0]; }
    typename M::Word& inc(std::uint32_t b) const { return words[1 + b]; }
  };

  struct LocalEntry {
    std::uint64_t epoch = 0;  ///< session epoch this resolution belongs to
    std::uint8_t inc = 0;
  };

  /// Everything one process keeps about its session, on one padded line:
  /// resolve() reads the session and the resolution cache on every access.
  struct ProcState {
    std::uint64_t current = 0;  ///< instance version read at session start
    std::uint64_t epoch = 0;    ///< bumped per begin_session
    std::vector<LocalEntry> local;  ///< per-word resolution cache
  };

  /// Resolve the live incarnation of `w` for this process' session,
  /// performing the lazy reset protocol on first access.
  typename M::Word& resolve(Pid self, Word w) {
    Record& rec = records_[w.idx];
    ProcState& me = *procs_[self];
    if (me.local.size() < records_.size()) me.local.resize(records_.size());
    LocalEntry& entry = me.local[w.idx];
    if (entry.epoch == me.epoch) {
      return rec.inc(entry.inc);  // already resolved this session
    }
    const std::uint64_t v = me.current;
    std::uint64_t raw = mem_.read(self, rec.vw());
    std::uint64_t vw = raw >> 1;
    std::uint32_t b = static_cast<std::uint32_t>(raw & 1);
    if (vw != v) {
      // Stale: switch to the next incarnation (which holds the initial
      // value) and prepare the now-retired one for the switch after that.
      const std::uint64_t desired = (v << 1) | (1 - b);
      if (mem_.cas(self, rec.vw(), raw, desired)) {
        mem_.write(self, rec.inc(b), rec.init);
        b = 1 - b;
      } else {
        // A same-session process won the switch; V_w now holds version v.
        raw = mem_.read(self, rec.vw());
        AML_DASSERT((raw >> 1) == v, "V_w must hold the session version");
        b = static_cast<std::uint32_t>(raw & 1);
      }
    }
    entry.epoch = me.epoch;
    entry.inc = static_cast<std::uint8_t>(b);
    return rec.inc(b);
  }

  M& mem_;
  Pid nprocs_;
  std::uint64_t version_mask_;  ///< versions live in W-1 bits
  typename M::Word* version_word_ = nullptr;
  std::vector<Record> records_;  ///< grows only before the instance is shared
  std::pmr::monotonic_buffer_resource handles_;  ///< every alloc's handles
  std::uint64_t cursor_ = 0;        ///< recycler-only eager-reset cursor
  std::uint64_t incarnations_ = 0;  ///< recycler-only
  std::vector<pal::CachePadded<ProcState>> procs_;
};

}  // namespace aml::core
