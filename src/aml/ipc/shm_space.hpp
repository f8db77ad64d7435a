// ShmSpace: the shared-memory word space. It shares model::NativeModel's
// operation vocabulary (model::NativeOps: seq_cst base operations, the
// acquire/release carriers, Backoff busy-waits) but keeps every word on a
// cache line of its own (model::PaddedNativeWord, where the heap model packs
// a block's words), and allocates out of a ShmArena instead of
// the model's heap arena, so every core lock template (OneShotLock,
// LongLivedLock, VersionedSpace) instantiates over it unchanged and its
// words are visible to every process mapping the segment.
//
// Allocation follows the arena's deterministic-replay discipline: the
// creator's alloc() stores the initial values; an attacher issuing the same
// alloc() sequence gets pointers to the creator's live words and must not
// re-initialize them. Word* handles are process-local (they embed the local
// mapping base) but resolve to identical offsets in every process because
// construction replays identically. Acquire/release have the same
// inter-process semantics over a shared mapping as intra-process, so the
// justified core relaxations apply to shm words too; the recovery
// journaling (amlint R7) never routes through them.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/model/native.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/edges.hpp"

namespace aml::ipc {

class ShmSpace : public model::NativeOps<true, model::PaddedNativeWord> {
 public:
  /// One shared word, padded so the per-slot spin words do not false-share
  /// across processes either. Padding every word (not every block) keeps a
  /// record block, {V_w, inc0, inc1}, the same three lines at the same
  /// offsets as three alloc(1) calls, so the segment layout does not depend
  /// on how the core templates group their allocations.
  using Word = model::PaddedNativeWord;

  ShmSpace(ShmArena& arena, model::Pid nprocs)
      : model::NativeOps<true, model::PaddedNativeWord>(nprocs),
        arena_(arena) {}

  /// Allocate `n` contiguous words initialized to `init`. Creator-only
  /// stores: the attacher replays the allocation for its cursor and handle
  /// but must not clobber live values.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    Word* w = arena_.alloc_array<Word>(n);
    if (arena_.creating()) {
      for (std::size_t i = 0; i < n; ++i) init_word(w[i], init);
    }
    total_words_ += n;
    return w;
  }

  /// Allocate one contiguous block holding a word per entry of `inits`
  /// (see NativeModel's block alloc); same replay discipline.
  Word* alloc(std::initializer_list<std::uint64_t> inits) {
    Word* w = arena_.alloc_array<Word>(inits.size());
    if (arena_.creating()) {
      std::size_t i = 0;
      for (const std::uint64_t init : inits) init_word(w[i++], init);
    }
    total_words_ += inits.size();
    return w;
  }

  /// DSM vocabulary shim (see NativeModel::alloc_owned): shm has no
  /// per-process locality either, so this forwards.
  Word* alloc_owned(model::Pid /*owner*/, std::size_t n,
                    std::uint64_t init = 0) {
    return alloc(n, init);
  }

  std::size_t words_allocated() const { return total_words_; }

  ShmArena& arena() const { return arena_; }

 private:
  static void init_word(Word& w, std::uint64_t init) {
    // Attachers only see the segment after the arena's seal handshake
    // publishes it (ipc.arena_seal), which covers these stores.
    w.v.store(init, std::memory_order_relaxed);  // AML_RELAXED(pre-seal init; published by ipc.arena_seal)
  }

  ShmArena& arena_;
  std::size_t total_words_ = 0;
};

AML_SHM_PLACEABLE(ShmSpace::Word);

}  // namespace aml::ipc
