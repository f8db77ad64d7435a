// Spin-node pools for the long-lived transformation (Section 6.2,
// "Recycling spin nodes").
//
// A spin node may be busy-waited on by a process even after LockDesc no
// longer points to it, so reuse requires knowing no process can still spin
// on the node. The paper cites Aghazadeh, Golab & Woelfel's constant-RMR
// reclamation scheme; we implement the same pool discipline with an
// announce-array quiescence test (see DESIGN.md's substitution table):
//
//   * a process spins on a node only when the node equals its saved oldSpn
//     (Algorithm 6.1, lines 57-59). Before saving a node as oldSpn — i.e.
//     before the Refcnt decrement of Cleanup — the process *publishes* the
//     node index in announce[p]. Claim 24 guarantees LockDesc.Spn cannot
//     change between the read that obtains the node and the decrement, so
//     the publication strictly precedes the switch that retires the node,
//     and therefore precedes any owner reclamation scan;
//   * an owner reuses one of its nodes only if it was retired (its go flag
//     was set by the switch that replaced it) and no announce entry pins it.
//
// Pool sizing (paper): N+1 nodes per process always leaves a reusable node.
// At the moment an owner allocates for a switch, its own announce pins
// exactly the node being replaced, so at most N distinct nodes of the owner
// are pinned or installed; asserted at runtime.
//
// Reclamation is batched: one O(N)-read scan of the announce array reclaims
// every quiescent node into a local free list, so allocation is O(1)
// amortized (the cited scheme achieves O(1) worst-case; the difference only
// affects the switching process, not the lock's passage RMR bound shape).
#pragma once

#include <cstdint>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"

namespace aml::core {

template <typename M, typename Metrics = obs::NullMetrics>
class SpinNodePool {
 public:
  using Word = typename M::Word;
  using Pid = model::Pid;

  static constexpr std::uint64_t kNoPin = ~std::uint64_t{0};

  struct Node {
    Word* go = nullptr;
  };

  /// Pools of `per_pool` nodes for each of `nprocs` owners. The long-lived
  /// lock uses per_pool = N+1.
  SpinNodePool(M& mem, Pid nprocs, std::uint32_t per_pool)
      : mem_(mem), nprocs_(nprocs), per_pool_(per_pool) {
    const std::size_t total =
        static_cast<std::size_t>(nprocs) * per_pool;
    nodes_.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      nodes_.push_back(Node{mem_.alloc(1, 0)});
    }
    announce_.reserve(nprocs);
    for (Pid p = 0; p < nprocs; ++p) {
      announce_.push_back(mem_.alloc(1, kNoPin));
    }
    owners_.resize(nprocs);
    for (Pid p = 0; p < nprocs; ++p) {
      Owner& own = *owners_[p];
      own.states.assign(per_pool, State::kFree);
      own.free.reserve(per_pool);
      for (std::uint32_t k = 0; k < per_pool; ++k) {
        own.free.push_back(p * per_pool + k);
      }
    }
  }

  SpinNodePool(const SpinNodePool&) = delete;
  SpinNodePool& operator=(const SpinNodePool&) = delete;

  Node& node(std::uint32_t global_idx) { return nodes_[global_idx]; }

  /// Bind an observability sink (no-op for the NullMetrics default).
  void set_metrics(Metrics* sink, std::uint32_t stripe = 0) {
    obs_.bind(sink, stripe);
  }

  /// Publish that `self` holds `global_idx` as its oldSpn. MUST be invoked
  /// before the Refcnt decrement that makes the node's retirement possible.
  /// Release suffices: the pin reaches the reclaim scan through the seq_cst
  /// F&A chain on LockDesc (pin -> our decrement -> owner's last-decrement),
  /// so the scan's read happens-after this store.
  void publish_pin(Pid self, std::uint32_t global_idx) {
    model::ord::write_rel(mem_, self, *announce_[self],  // AML_V_EDGE(spinpool.pin_publish)
                          global_idx);
  }

  /// Withdraw `self`'s pin (tests / teardown; the lock itself simply
  /// overwrites the pin on its next Cleanup).
  void clear_pin(Pid self) { mem_.write(self, *announce_[self], kNoPin); }

  /// Owner-only: obtain a reusable node (go reset to 0) from self's pool.
  std::uint32_t alloc(Pid self) {
    Owner& own = *owners_[self];
    if (own.free.empty()) reclaim(self);
    AML_ASSERT(!own.free.empty(),
               "spin-node pool exhausted: invariant violated");
    const std::uint32_t idx = own.free.back();
    own.free.pop_back();
    State& st = own.states[idx - self * per_pool_];
    AML_DASSERT(st == State::kFree, "allocating a busy node");
    st = State::kIssued;
    return idx;  // go is 0 for free nodes
  }

  /// Owner-only: return a node that never became visible (install CAS lost).
  void unalloc(Pid self, std::uint32_t global_idx) {
    AML_ASSERT(global_idx / per_pool_ == self, "unalloc by non-owner");
    Owner& own = *owners_[self];
    State& st = own.states[global_idx - self * per_pool_];
    AML_DASSERT(st == State::kIssued, "unalloc of free node");
    st = State::kFree;
    own.free.push_back(global_idx);
  }

  std::uint32_t per_pool() const { return per_pool_; }
  std::size_t total_nodes() const { return nodes_.size(); }

 private:
  enum class State : std::uint8_t {
    kFree,    ///< in the owner's free list; go == 0
    kIssued,  ///< handed out; possibly installed, retired, or pinned
  };

  /// One owner's private bookkeeping, on cache lines no other owner
  /// writes: the padded block holds both containers, and LineVector keeps
  /// their storage off the lines of neighbouring owners' storage.
  struct Owner {
    pal::LineVector<std::uint32_t> free;  ///< reusable node indices
    /// One per node of this owner, at its index minus self * per_pool.
    pal::LineVector<State> states;
  };

  /// Batch reclamation: one scan of the announce array, then sweep the
  /// owner's issued nodes, reclaiming each that is retired (go == 1) and
  /// unpinned.
  void reclaim(Pid self) {
    const std::uint32_t base = self * per_pool_;
    std::vector<bool> pinned(per_pool_, false);
    for (Pid p = 0; p < nprocs_; ++p) {
      // Acquire side of the pin publication (see publish_pin).
      const std::uint64_t pin =
          model::ord::read_acq(mem_, self, *announce_[p]);  // AML_X_EDGE(spinpool.pin_publish)
      if (pin != kNoPin && pin / per_pool_ == self) {
        pinned[pin % per_pool_] = true;
      }
    }
    Owner& own = *owners_[self];
    std::uint64_t reclaimed = 0;
    for (std::uint32_t k = 0; k < per_pool_; ++k) {
      const std::uint32_t idx = base + k;
      if (own.states[k] != State::kIssued || pinned[k]) continue;
      // Acquire side of the retirement flag: go == 1 was written by the
      // switch that replaced this node (Cleanup line 77).
      if (model::ord::read_acq(mem_, self, *nodes_[idx].go) !=  // AML_X_EDGE(longlived.spn_switch)
          1) {
        continue;  // still installed
      }
      // Reset is private until the node is re-installed: the next spinner
      // only finds the node through a LockDesc read that happens-after the
      // owner's seq_cst install CAS, which is sequenced after this store.
      model::ord::write_rlx(mem_, self, *nodes_[idx].go, 0);  // AML_RELAXED(published by the next install CAS)
      own.states[k] = State::kFree;
      own.free.push_back(idx);
      ++reclaimed;
    }
    if (reclaimed != 0) obs_.on_spin_node_recycle(self, reclaimed);
  }

  M& mem_;
  Pid nprocs_;
  std::uint32_t per_pool_;
  std::vector<Node> nodes_;
  std::vector<Word*> announce_;
  std::vector<pal::CachePadded<Owner>> owners_;
  [[no_unique_address]] obs::SinkHandle<Metrics> obs_;
};

}  // namespace aml::core
