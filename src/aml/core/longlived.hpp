// The long-lived abortable lock: the generic one-shot -> long-lived
// transformation of Section 6 (Figure 5) applied to the one-shot lock of
// Section 3, with the Section 6.2 memory-management schemes bounding space
// to O(N * s(N) + N^2) words.
//
// State is a single packed word
//
//      LockDesc = (Lock: instance index, Spn: spin-node index, Refcnt)
//
// manipulated with F&A (increment/decrement Refcnt while atomically
// snapshotting the tuple) and CAS (switch Lock/Spn when Refcnt drops to 0).
// The paper stores pointers; we store pool indices, which is what makes the
// tuple fit one real 64-bit word — functionally identical, since both
// instances and spin nodes come from pools fixed at construction.
//
//   Enter (Alg 6.1): if LockDesc.Spn equals the spin node saved by our
//     previous attempt, the one-shot instance we already used is still
//     installed; busy-wait on spn.go (O(1) RMRs) until it is switched out.
//     Then F&A LockDesc to join the current instance and run its Enter.
//   Exit (Alg 6.2): run the instance's Exit, then Cleanup.
//   Cleanup (Alg 6.3): F&A(-1); if we were last (refcnt was 1), prepare a
//     fresh instance (our held instance, advanced to its next incarnation)
//     and a fresh spin node, CAS-switch LockDesc, and on success set the
//     replaced spin node's go flag and hold the replaced instance for our
//     next allocation.
//
// The transformation preserves starvation freedom but not FCFS (Theorem 23);
// RMR cost per passage is within O(1) of the one-shot lock's (Claim 28).
//
// The Space template parameter selects the recycling scheme:
// VersionedSpace<M> (the paper's lazy reset; default) or EagerSpace<M> (the
// O(s(N))-per-reuse ablation).
//
// The Journal template parameter is the only difference between the
// in-process lock and the crash-recoverable shared-memory one. A crash is a
// forced abort replayed from a journal over the *same* passage (Katzan &
// Morrison, arXiv 2011.07622), so the algorithm below exists once and the
// journal supplies what a survivor needs to finish a dead process's
// passage: where the per-process locals live, how LockDesc is packed and
// updated, which spin-node pool backs it, and a phase record around each
// step. NullJournal (here) records nothing and compiles away;
// ipc::RecoverableJournal is the durable one. Every Cleanup/switch step
// takes (exec, owner): exec performs the memory operations, owner is whose
// passage they belong to. In process they are always equal; a recoverer
// passes its own pid as exec and the dead process's as owner.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/spin_pool.hpp"
#include "aml/core/versioned_space.hpp"

namespace aml::core {

/// Passage phases, in journal order. A durable journal stores each phase
/// with seq_cst *before* taking the step the phase names, so a recoverer
/// reading phase P knows every step before P completed and no step after P
/// started (except the one in flight, which each recovery arm reasons
/// about). NullJournal drops them.
enum Phase : std::uint64_t {
  kIdle = 0,      ///< no passage in progress
  kSpinWait = 1,  ///< maybe waiting on old_spn's node; LockDesc untouched
  kPreJoin = 2,   ///< join F&A announced/in flight
  kJoined = 3,    ///< refcnt incremented; `current` names the instance
  kDoorway = 4,   ///< inside one-shot enter; attempt word has the slot
  kHolding = 5,   ///< in the critical section
  kReleasing = 6, ///< inside one-shot exit; head_snap recorded
  kCleanup = 7,   ///< release F&A / instance switch announced or in flight
};

/// The in-process journal: records nothing, so it is an empty class whose
/// hooks are static no-ops. It selects the in-process representation: heap
/// per-process locals (kept by the lock), plain F&A/CAS on a 16|32|16
/// LockDesc, and core::SpinNodePool. Its members are the whole interface a
/// journal supplies; (exec, owner) parameters are as in the file header.
class NullJournal {
  static constexpr std::uint32_t kRefBits = 16;
  static constexpr std::uint32_t kSpnBits = 32;

 public:
  static constexpr bool kDurable = false;
  static constexpr Pid kMaxProcs = (1u << kRefBits) - 2;
  template <typename M, typename Metrics>
  using Pool = SpinNodePool<M, Metrics>;

  struct Desc {
    std::uint32_t lock;
    std::uint32_t spn;
    std::uint32_t refcnt;
  };
  /// A landed release: its pre-image, and the word it left behind (the
  /// switch CAS's expected value when it dropped Refcnt to 0).
  struct Released {
    Desc pre;
    std::uint64_t post;
  };

  NullJournal(auto& /*mem*/, Pid /*nprocs*/) {}

  static std::uint64_t pack(std::uint32_t lock, std::uint32_t spn,
                            std::uint32_t refcnt) {
    return (static_cast<std::uint64_t>(lock) << (kRefBits + kSpnBits)) |
           (static_cast<std::uint64_t>(spn) << kRefBits) | refcnt;
  }
  static Desc unpack(std::uint64_t raw) {
    Desc d;
    d.refcnt = static_cast<std::uint32_t>(raw & ((1u << kRefBits) - 1));
    d.spn = static_cast<std::uint32_t>((raw >> kRefBits) &
                                       ((1ull << kSpnBits) - 1));
    d.lock = static_cast<std::uint32_t>(raw >> (kRefBits + kSpnBits));
    return d;
  }
  /// LockDesc's initial value: instance 0, a fresh node of pid 0, Refcnt 0.
  static std::uint64_t initial_desc(auto& pool) {
    return pack(0, pool.alloc(0), 0);
  }

  // Passage record: mark() journals a phase; begin()/finish() clear the
  // attempt record and mark kSpinWait/kIdle; releasing() records the
  // one-shot's head, then marks kReleasing.
  static void mark(Pid, Phase) {}
  static void begin(Pid) {}
  static void finish(Pid) {}
  static void releasing(Pid, auto& /*one_shot*/) {}

  // LockDesc updates and spin nodes.
  static Desc join(auto& mem, Pid exec, Pid, auto& word) {
    return unpack(mem.faa(exec, word, 1));
  }
  static Released release(auto& mem, Pid exec, Pid, auto& word) {
    const std::uint64_t raw = mem.faa(exec, word, ~std::uint64_t{0});
    return {unpack(raw), raw - 1};
  }
  static void pin(auto& pool, Pid exec, Pid, std::uint32_t idx) {
    pool.publish_pin(exec, idx);
  }
  /// Announce the switch away from `expected`; returns its sequence number.
  static std::uint64_t announce_switch(Pid, std::uint64_t /*expected*/) {
    return 0;
  }
  static std::uint32_t take_node(auto& pool, Pid exec, Pid) {
    return pool.alloc(exec);
  }
  static void drop_node(auto& pool, Pid exec, Pid, std::uint32_t idx) {
    pool.unalloc(exec, idx);
  }
  static bool install(auto& mem, Pid exec, Pid, auto& word,
                      std::uint64_t expected, std::uint32_t lock,
                      std::uint32_t spn, std::uint64_t /*seq*/) {
    return mem.cas(exec, word, expected, pack(lock, spn, 0));
  }
  /// A landed switch's locals are saved.
  static void switched(Pid) {}
};

static_assert(std::is_empty_v<NullJournal>,
              "the in-process journal must compile to nothing");

/// Template parameters:
///   M           — memory model;
///   SpacePolicy — instance recycling scheme: VersionedSpace (the paper's
///                 lazy reset; default) or EagerSpace (the O(s) ablation);
///   OneShotT    — the one-shot lock to transform: OneShotLock (the paper's
///                 CC algorithm; default) or OneShotLockDsm. The paper's
///                 transformation is CC-only (its Spn busy-wait spins on a
///                 shared node); composing with the DSM variant is the
///                 Section 8 open problem, offered here for exploration —
///                 correct, but with remote spinning on the spin nodes;
///   Metrics     — observability sink (see aml/obs/metrics.hpp); the default
///                 NullMetrics compiles every instrumentation point away;
///   Journal     — NullJournal (default) or a durable journal such as
///                 ipc::RecoverableJournal (see the file header).
template <typename M, template <typename> class SpacePolicy = VersionedSpace,
          template <typename, typename> class OneShotT = OneShotLock,
          typename Metrics = obs::NullMetrics,
          typename Journal = NullJournal>
class LongLivedLock {
 public:
  using Space = SpacePolicy<M>;
  using OneShot = OneShotT<Space, Metrics>;
  using MetricsSink = Metrics;
  using Pool = typename Journal::template Pool<M, Metrics>;
  using Desc = typename Journal::Desc;

  struct Config {
    Pid nprocs = 2;       ///< N: number of participating processes
    std::uint32_t w = 64; ///< W: word width for the tree and version fields
    Find find = Find::kAdaptive;
  };

  LongLivedLock(M& mem, Config config)
      : mem_(mem),
        config_(config),
        spin_pool_(mem, config.nprocs, config.nprocs + 1),
        journal_(mem, config.nprocs),
        locals_(config.nprocs) {
    AML_ASSERT(config.nprocs >= 1 && config.nprocs <= Journal::kMaxProcs,
               "nprocs out of range for LockDesc packing");
    // N+1 one-shot instances: one installed, one held by each process.
    instances_.reserve(config.nprocs + 1);
    for (Pid i = 0; i <= config.nprocs; ++i) {
      instances_.push_back(std::make_unique<Instance>(mem_, config_));
    }
    for (Pid p = 0; p < locals_.size(); ++p) {
      locals_[p]->held = p + 1;
      locals_[p]->old_spn = kNoSpn;
    }
    lock_desc_ = mem_.alloc(1, journal_.initial_desc(spin_pool_));
  }

  LongLivedLock(const LongLivedLock&) = delete;
  LongLivedLock& operator=(const LongLivedLock&) = delete;

  /// Bind an observability sink to this lock, its spin-node pool, and every
  /// one-shot instance, each instance under its own index, so events name
  /// the stripe and instance they come from (no-op for NullMetrics).
  void set_metrics(Metrics* sink, std::uint32_t stripe = 0) {
    obs_.bind(sink, stripe);
    spin_pool_.set_metrics(sink, stripe);
    for (std::uint32_t i = 0; i < instances_.size(); ++i) {
      instances_[i]->lock.set_metrics(sink, stripe, i);
    }
  }

  /// Algorithm 6.1. `acquired` is true when the critical section was
  /// entered; false when the attempt was aborted (the abort signal was
  /// observed while waiting). `slot` is the queue index assigned by the
  /// joined instance's doorway, or kNoSlot when the attempt aborted during
  /// the spin-node wait, before joining an instance. Bounded abort: returns
  /// within a finite number of the caller's steps once the signal is up.
  EnterResult enter(Pid self, const std::atomic<bool>* abort_signal) {
    journal_.begin(self);
    const Desc desc = Journal::unpack(mem_.read(self, *lock_desc_));  // line 57
    if (desc.spn == old_spn(self)) {
      // The instance we already used is still installed: wait on its spin
      // node until it is switched out (lines 58-61). Safe against node
      // reuse: our pin on this node was published in Cleanup before our
      // Refcnt decrement, so its owner cannot reclaim it while we are here.
      auto& node = spin_pool_.node(desc.spn);
      // Acquire side of the switch: observing go == 1 imports the switcher's
      // CAS install of the fresh instance and everything before it.
      auto outcome = mem_.wait(  // AML_X_EDGE(longlived.spn_switch)
          self, *node.go,
          [this, self](std::uint64_t v) {
            obs_.on_spin_iteration(self);
            return v != 0;
          },
          abort_signal);
      if (outcome.stopped) {  // lines 60-61 (refcnt untouched)
        journal_.mark(self, kIdle);
        obs_.on_abort(self, kNoSlot);
        return {false, kNoSlot};
      }
    }
    journal_.mark(self, kPreJoin);
    const Desc joined = join(self, self);  // line 62
    AML_DASSERT(joined.refcnt < config_.nprocs, "Refcnt overflow");
    set_current(self, joined.lock);
    journal_.mark(self, kJoined);
    Instance& inst = *instances_[joined.lock];
    inst.space.begin_session(self);
    journal_.mark(self, kDoorway);
    const EnterResult result = inst.lock.enter(self, abort_signal);  // line 63
    if (!result.acquired) {
      end_passage(self);  // lines 64-65
      return result;
    }
    journal_.mark(self, kHolding);
    return result;
  }

  /// Algorithm 6.2. Caller must hold the lock.
  void exit(Pid self) {
    const Desc desc = Journal::unpack(mem_.read(self, *lock_desc_));  // line 67
    AML_DASSERT(desc.lock == current(self),
                "installed instance changed under the CS holder (Claim 24)");
    OneShot& one_shot = instances_[desc.lock]->lock;
    journal_.releasing(self, one_shot);
    one_shot.exit(self);  // line 68
    end_passage(self);    // line 69
  }

  // --- introspection -----------------------------------------------------

  /// LockDesc's Refcnt via a raw read (testing aid).
  std::uint64_t peek_refcnt(Pid self) {
    return Journal::unpack(read_desc(self)).refcnt;
  }
  std::uint32_t instance_count() const {
    return static_cast<std::uint32_t>(instances_.size());
  }
  std::uint64_t total_incarnations() const {
    std::uint64_t total = 0;
    for (const auto& inst : instances_) total += inst->space.incarnations();
    return total;
  }
  /// Successful instance switches (Cleanup CAS installs). Unlike
  /// total_incarnations(), this excludes the next_incarnation() bumps made
  /// by Cleanups whose install CAS subsequently lost, so it counts the
  /// switches that actually happened (total_switches <= total_incarnations).
  std::uint64_t total_switches() const {
    std::uint64_t total = 0;
    for (const auto& local : locals_) {
      total += local->switches.load(std::memory_order_relaxed);  // AML_RELAXED(monotonic introspection counter)
    }
    return total;
  }
  /// Currently installed instance index, via a raw read (testing aid).
  std::uint32_t peek_installed(Pid self) {
    return Journal::unpack(read_desc(self)).lock;
  }
  std::size_t spin_nodes() const { return spin_pool_.total_nodes(); }

  // --- oracle probes (no gating, no accounting; scheduler-thread safe) --

  /// Unpacked LockDesc snapshot for invariant oracles.
  Desc probe_desc() const { return Journal::unpack(mem_.peek(*lock_desc_)); }
  /// Version word of instance `idx`'s space. Only instantiable when the
  /// space policy exposes peek_version() (VersionedSpace).
  std::uint64_t probe_space_version(std::uint32_t idx) const {
    return instances_[idx]->space.peek_version();
  }
  /// Wraparound mask of the spaces' version fields (same for all instances).
  /// Only instantiable when the space policy exposes version_mask().
  std::uint64_t probe_space_version_mask() const {
    return instances_[0]->space.version_mask();
  }
  const Config& config() const { return config_; }

  /// Test-only: overwrite the packed LockDesc word, bypassing the algorithm
  /// (oracle fire-tests manufacture illegal states with this).
  void debug_poke_desc(std::uint32_t lock, std::uint32_t spn,
                       std::uint32_t refcnt) {
    mem_.poke(*lock_desc_, Journal::pack(lock, spn, refcnt));
  }

 protected:
  // A durable journal's recovery front derives from the lock: it re-enters
  // these steps as a proxy for a dead process.

  /// Line 62 for `owner`: join the installed instance; returns the
  /// pre-image.
  Desc join(Pid exec, Pid owner) {
    return journal_.join(mem_, exec, owner, *lock_desc_);
  }

  /// Line 70 for `owner`, with one addition for spin-node reclamation: the
  /// spin node about to be saved as oldSpn is published in owner's announce
  /// entry *before* the Refcnt decrement. Claim 24 makes the pre-read of
  /// LockDesc.Spn stable (owner's increment is still in force), and
  /// publishing before decrementing guarantees the pin is visible before
  /// the node can be retired, hence before its owner can scan for reuse.
  typename Journal::Released release(Pid exec, Pid owner) {
    const Desc pinned = Journal::unpack(mem_.read(exec, *lock_desc_));
    journal_.pin(spin_pool_, exec, owner, pinned.spn);
    const auto released = journal_.release(mem_, exec, owner, *lock_desc_);
    AML_DASSERT(released.pre.spn == pinned.spn,
                "LockDesc.Spn changed while our Refcnt hold was in force");
    return released;
  }

  /// Algorithm 6.3 for `owner`'s passage.
  void cleanup(Pid exec, Pid owner) {
    const auto released = release(exec, owner);
    set_old_spn(owner, released.pre.spn);
    if (released.pre.refcnt != 1) return;  // line 71
    // The last user switches to a fresh instance (lines 72-77).
    switch_instance(exec, owner, released.post);
  }

  /// Lines 72-77: announce and attempt the switch away from `expected`, the
  /// Refcnt-0 word `owner`'s release left.
  bool switch_instance(Pid exec, Pid owner, std::uint64_t expected) {
    return install_switch(exec, owner, expected,
                          journal_.announce_switch(owner, expected));
  }

  /// The CAS half of a switch already announced under `seq`: owner's held
  /// instance, advanced to its next incarnation, and a fresh node of
  /// owner's pool replace `expected`'s.
  bool install_switch(Pid exec, Pid owner, std::uint64_t expected,
                      std::uint64_t seq) {
    const std::uint32_t new_lock = held(owner);
    instances_[new_lock]->space.next_incarnation(exec);
    const std::uint32_t new_spn = journal_.take_node(spin_pool_, exec, owner);
    if (journal_.install(mem_, exec, owner, *lock_desc_, expected, new_lock,
                         new_spn, seq)) {
      // Single writer (exec), so a plain increment on exec's own line; the
      // lock object's lines stay read-only on the passage path.
      auto& switches = locals_[exec]->switches;
      switches.store(switches.load(std::memory_order_relaxed) + 1,  // AML_RELAXED(single-writer introspection counter)
                     std::memory_order_relaxed);  // AML_RELAXED(single-writer introspection counter)
      obs_.on_switch(exec, new_lock);
      finish_switch(exec, owner, Journal::unpack(expected));
      return true;
    }
    // Another process joined (and will run Cleanup itself) or switched
    // first; our node was never visible.
    journal_.drop_node(spin_pool_, exec, owner, new_spn);
    return false;
  }

  /// Post-CAS steps of a landed switch: retire the replaced spin node and
  /// hold the replaced instance for owner's next switch. Idempotent.
  void finish_switch(Pid exec, Pid owner, const Desc& prev) {
    auto& go = *spin_pool_.node(prev.spn).go;
    if constexpr (Journal::kDurable) {
      // seq_cst: recovery may re-run this; still the release side the spn
      // waiters acquire.
      mem_.write(exec, go, 1);  // AML_V_EDGE(longlived.spn_switch), line 77
    } else {
      // Release suffices: the waiters in enter (and the owner's reclaim
      // scan) acquire go == 1, importing the seq_cst install CAS above; no
      // protocol word is read after this.
      model::ord::write_rel(mem_, exec, go, 1);  // AML_V_EDGE(longlived.spn_switch), line 77
    }
    set_held(owner, prev.lock);
    journal_.switched(owner);
  }

  /// Join instance `idx`'s session as `exec`; returns its one-shot lock.
  OneShot& resume(Pid exec, std::uint32_t idx) {
    instances_[idx]->space.begin_session(exec);
    return instances_[idx]->lock;
  }

  /// The raw LockDesc word, read as `self`.
  std::uint64_t read_desc(Pid self) { return mem_.read(self, *lock_desc_); }
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  Pool& spin_pool() { return spin_pool_; }

 private:
  static constexpr std::uint32_t kNoSpn = ~std::uint32_t{0};

  /// One recyclable one-shot lock instance: a word space plus the one-shot
  /// algorithm over it. All mutable state lives in the space's words, so the
  /// same objects serve every incarnation.
  struct Instance {
    Space space;
    OneShot lock;

    Instance(M& mem, const Config& config)
        : space(mem, config.nprocs, config.w),
          lock(space, config.nprocs, config.w, config.find) {}
  };

  /// One pid's line. The first three fields are its NullJournal locals (a
  /// durable journal keeps them in its record instead); `switches` counts
  /// the installs this pid landed as exec, for total_switches().
  struct Local {
    std::uint32_t held = 0;      ///< instance to use for the next allocation
    std::uint32_t old_spn = 0;   ///< spin node saved at our last Cleanup
    std::uint32_t current = 0;   ///< instance joined by the ongoing attempt
    std::atomic<std::uint64_t> switches{0};
  };

  /// Cleanup and the journal's end-of-passage record (lines 64-65, 69).
  void end_passage(Pid self) {
    journal_.mark(self, kCleanup);
    cleanup(self, self);
    journal_.finish(self);
  }

  // Per-process locals: on the heap in process, in the journal's record
  // (where a survivor can read them) when it is durable.
  std::uint32_t held(Pid p) const {
    if constexpr (Journal::kDurable) return journal_.held(p);
    else return locals_[p]->held;
  }
  void set_held(Pid p, std::uint32_t v) {
    if constexpr (Journal::kDurable) journal_.set_held(p, v);
    else locals_[p]->held = v;
  }
  std::uint32_t old_spn(Pid p) const {
    if constexpr (Journal::kDurable) return journal_.old_spn(p);
    else return locals_[p]->old_spn;
  }
  void set_old_spn(Pid p, std::uint32_t v) {
    if constexpr (Journal::kDurable) journal_.set_old_spn(p, v);
    else locals_[p]->old_spn = v;
  }
  std::uint32_t current(Pid p) const {
    if constexpr (Journal::kDurable) return journal_.current(p);
    else return locals_[p]->current;
  }
  void set_current(Pid p, std::uint32_t v) {
    if constexpr (Journal::kDurable) journal_.set_current(p, v);
    else locals_[p]->current = v;
  }

  M& mem_;
  Config config_;
  Pool spin_pool_;
  [[no_unique_address]] Journal journal_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<pal::CachePadded<Local>> locals_;  ///< one line per pid
  typename M::Word* lock_desc_ = nullptr;
  [[no_unique_address]] obs::SinkHandle<Metrics> obs_;
};

}  // namespace aml::core
