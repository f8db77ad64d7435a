// The lock table's generation pin/drain Dekker (table/lock_table.hpp),
// op-for-op, for the table.gen_quiesce litmus test and its negative
// control. A worker pins as LockTable::pin() does (load current_, store its
// own pin cell, recheck current_) while a resizer publishes a new
// generation and scans the old generation's cells as resize() and
// maybe_retire() do.
//
// A *lost pin* is a round in which the worker's recheck still saw the old
// generation as current (so it would go on to take old-generation stripes)
// while the resizer's scan saw the worker's cell empty (so it would retire
// the old generation under the worker). With the seq_cst cell store the
// table uses, the store-load Dekker forbids that outcome. `PinStore` lets
// the negative control weaken that one store to release, which on any
// hardware with a store buffer (x86 included) lets the worker's recheck run
// before its cell store is visible: the store-buffering outcome.
//
// Each round starts from a fresh old generation and holds the worker's pin
// until the resizer has scanned, so an unpin can never make a legal scan
// look like a lost pin. Small random delays on both sides make the two
// Dekker halves overlap in some rounds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "aml/pal/cache.hpp"
#include "aml/pal/rng.hpp"

namespace aml::litmus {

struct GenQuiesceRun {
  std::uint64_t rounds = 0;      ///< rounds completed
  std::uint64_t pinned_old = 0;  ///< rounds the worker kept the old pin
  std::uint64_t lost = 0;        ///< rounds with a lost pin
};

namespace detail {

inline void spin_for(std::uint32_t iterations) {
  for (std::uint32_t i = 0; i < iterations; ++i) {
    std::atomic_signal_fence(std::memory_order_seq_cst);  // keeps the loop
  }
}

}  // namespace detail

/// Run up to `max_rounds` rounds or until `budget` elapses; with
/// `stop_at_loss`, stop at the first lost pin.
template <std::memory_order PinStore>
GenQuiesceRun run_gen_quiesce(std::uint64_t max_rounds,
                              std::chrono::milliseconds budget,
                              bool stop_at_loss) {
  struct Generation {
    pal::CachePadded<std::atomic<std::uint64_t>> cell;  ///< the worker's id
  };
  Generation gens[2];
  Generation* const old_gen = &gens[0];
  Generation* const new_gen = &gens[1];
  pal::CachePadded<std::atomic<Generation*>> current;
  // Round hand-shakes (never part of the Dekker itself).
  pal::CachePadded<std::atomic<std::uint64_t>> armed;    // resizer -> worker
  pal::CachePadded<std::atomic<std::uint64_t>> scanned;  // resizer -> worker
  pal::CachePadded<std::atomic<std::uint64_t>> done;     // worker -> resizer
  pal::CachePadded<std::atomic<bool>> pinned_old;        // this round's pin
  std::atomic<bool> stop{false};

  GenQuiesceRun out;
  std::thread worker([&] {
    pal::Xoshiro256 rng(17);
    for (std::uint64_t r = 1;; ++r) {
      while (armed->load(std::memory_order_acquire) != r) {
        if (stop.load(std::memory_order_acquire)) return;
      }
      detail::spin_for(static_cast<std::uint32_t>(rng.next() % 256));
      // pin(): load current_, store the cell, recheck current_.
      Generation* g = current->load(std::memory_order_seq_cst);
      std::atomic<std::uint64_t>& cell = *g->cell;
      cell.store(cell.load(std::memory_order_relaxed) + 1, PinStore);
      const bool kept = current->load(std::memory_order_seq_cst) == g;
      pinned_old->store(kept && g == old_gen, std::memory_order_relaxed);
      // Hold the pin until the resizer has scanned, then unpin().
      while (scanned->load(std::memory_order_acquire) != r) {
      }
      cell.store(cell.load(std::memory_order_relaxed) - 1,
                 std::memory_order_seq_cst);
      done->store(r, std::memory_order_release);
    }
  });

  pal::Xoshiro256 rng(29);
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (std::uint64_t r = 1; r <= max_rounds; ++r) {
    if ((r & 1023) == 0 && std::chrono::steady_clock::now() > deadline) break;
    current->store(old_gen, std::memory_order_relaxed);
    armed->store(r, std::memory_order_release);
    // The worker still has to see `armed`: start the resizer's half later.
    detail::spin_for(static_cast<std::uint32_t>(64 + rng.next() % 256));
    // resize(): publish the new generation, then maybe_retire()'s scan.
    current->store(new_gen, std::memory_order_seq_cst);
    const bool saw_empty = old_gen->cell->load(std::memory_order_seq_cst) == 0;
    scanned->store(r, std::memory_order_release);
    while (done->load(std::memory_order_acquire) != r) {
    }
    const bool kept_old = pinned_old->load(std::memory_order_relaxed);
    out.rounds = r;
    out.pinned_old += kept_old ? 1 : 0;
    if (kept_old && saw_empty) {
      ++out.lost;
      if (stop_at_loss) break;
    }
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  return out;
}

}  // namespace aml::litmus
