// ShmStripe: the Section 6 long-lived transformation over shared memory,
// with owner-death recovery.
//
// The transformation itself is core::LongLivedLock, instantiated over
// ShmSpace with the RecoverableJournal below; this file adds only what a
// crash needs. The journal keeps in the ShmArena every word that is
// process-heap state in process — the per-process locals (held / old_spn /
// current) in a per-pid PassageSlot, the spin-node pool's free/issued marks
// beside the nodes — so a *survivor* can finish a dead process's passage.
// ShmStripe is the folded lock plus the recovery front that replays it.
//
// Recovery model (crash = forced abort, after Katzan & Morrison's
// recoverable-abortable lock, arxiv.org/2011.07622): each process journals
// its progress through a passage as a phase word plus an attempt word
// (queue slot + instance index, written by the RecoverySink the moment the
// one-shot doorway assigns them). A recoverer that has claimed the victim's
// registry slot (see process_registry.hpp) reads the frozen journal and
// resumes the passage at the recorded phase, running the *same algorithm
// steps* the victim would have: abort_on_behalf for a waiting victim,
// complete_grant + exit for a granted-but-dead one, exit for a dead CS
// holder, resignal for a death mid-hand-off — then the lock's own Cleanup,
// executed as a proxy (exec = recoverer, owner = victim). Every step it
// reuses is idempotent or exactly-once by phase, which is what makes the
// replay safe; see docs/API.md for the full state machine.
//
// Recoverable fetch-and-add: the LockDesc refcnt updates are not bare F&As.
// Before touching the word, the caller announces the operation in its own
// PassageSlot — op kind + sequence number in `ann_desc`, then on every
// attempt the pre-image in `ann_pre` — and performs the F&A as a CAS that
// stamps (pid, seq) into reserved LockDesc bits. Two rules make the outcome
// decidable post-mortem:
//
//   1. every mutator of LockDesc first *helps*: it reads the stamp it is
//      about to overwrite and, if that pid's currently announced sequence
//      matches, records it in the pid's `landed` word (a CAS-max) before
//      the overwrite can retire the evidence;
//   2. a winner records its own success in `landed` before announcing any
//      later operation.
//
// So a recoverer asking "did the victim's announced op seq land?" answers
// definitively: either the stamp (victim, seq) is still in the word, or —
// if it ever was — rule 1/2 guarantees landed[victim] >= seq (all stores
// involved are seq_cst, so the recoverer's two loads cannot both miss). If
// neither holds, the CAS never succeeded. The pre-join and cleanup arms
// therefore complete or compensate the F&A instead of retiring the pid;
// the stamp sequence is truncated to 24 bits in the word, so the in-word
// test alone is ambiguous only after 2^24 full passages inside one
// recoverer read — far beyond the claim hold time (same bounded-reuse
// assumption as the 32-bit recovery seqlock below).
//
// One window remains journal-blind: inside the one-shot doorway before the
// sink records the tail F&A's slot (kDoorway, attempt unrecorded). A death
// there still retires the pid (kZombie) — but retired pids are
// *reclaimable* after a full-quiescence epoch (see process_registry.hpp).
//
// Memory visibility across processes: a victim writes its plain journal
// fields (head_snap, current, ann_pre) before the seq_cst phase/announce
// store that makes them relevant, and the recoverer seq_cst-loads the
// phase before reading them, so every journal read is ordered after the
// matching write. Only one recoverer touches a stripe at a time (per-stripe
// recovery seqlock with dead-holder takeover), and only after winning the
// victim's registry claim.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <sched.h>
#include <signal.h>

#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

using model::Pid;

/// Passage phases (journal order): see core::Phase.
using core::Phase;
using enum core::Phase;

/// Render any phase word, including values from a newer layout this build
/// does not know: those come back as "unknown(<n>)" so a v2 reader can
/// still inspect (and a JSON schema still validate) a v3 segment.
inline std::string phase_label(std::uint64_t p) {
  static constexpr const char* kNames[] = {
      "idle",    "spin-wait", "pre-join",  "joined",
      "doorway", "holding",   "releasing", "cleanup"};
  if (p < std::size(kNames)) return kNames[p];
  return "unknown(" + std::to_string(p) + ")";
}

/// Attempt-word packing: bit 0 = a doorway record exists, bit 1 = the grant
/// was observed by the victim, bits [2, 34) = queue slot, bits [34, 50) =
/// instance index.
inline constexpr std::uint64_t kAttemptRecorded = 1;
inline constexpr std::uint64_t kAttemptGranted = 2;

inline constexpr std::uint64_t pack_attempt(std::uint32_t slot,
                                            std::uint32_t instance) {
  return kAttemptRecorded | (static_cast<std::uint64_t>(slot) << 2) |
         (static_cast<std::uint64_t>(instance) << 34);
}
inline constexpr std::uint32_t attempt_slot(std::uint64_t a) {
  return static_cast<std::uint32_t>((a >> 2) & 0xFFFF'FFFFull);
}
inline constexpr std::uint32_t attempt_instance(std::uint64_t a) {
  return static_cast<std::uint32_t>((a >> 34) & 0xFFFFull);
}

/// Announcement-word packing for the recoverable F&A: low 2 bits are the
/// op kind, the rest a per-pid monotone sequence number. The sequence is
/// never reset — it spans passages, incarnations and recovered redos.
inline constexpr std::uint64_t kAnnOpJoin = 1;     ///< refcnt + 1 (enter)
inline constexpr std::uint64_t kAnnOpRelease = 2;  ///< refcnt - 1 (cleanup)
inline constexpr std::uint64_t kAnnOpSwitch = 3;   ///< instance-switch CAS
inline constexpr std::uint64_t kAnnOpBits = 2;
inline constexpr std::uint64_t kAnnOpMask = (1ull << kAnnOpBits) - 1;

inline constexpr std::uint64_t ann_pack(std::uint64_t seq, std::uint64_t op) {
  return (seq << kAnnOpBits) | op;
}
inline constexpr std::uint64_t ann_seq(std::uint64_t a) {
  return a >> kAnnOpBits;
}
inline constexpr std::uint64_t ann_op(std::uint64_t a) {
  return a & kAnnOpMask;
}

/// `ann_aux` sentinel: no spin node journaled for the announced switch.
inline constexpr std::uint64_t kAuxNone = ~std::uint64_t{0};

// AML_SHM_REGION_BEGIN
/// Per-pid passage journal + the long-lived lock's per-process locals,
/// promoted to shm so recovery (and the pid's next leaseholder) can read
/// them. Two cache lines per pid: the owner writes its own slot on its hot
/// path; recoverers only read it after the owner is dead (`landed` is the
/// one exception — helpers CAS-max it on the owner's behalf).
struct alignas(pal::kCacheLine) PassageSlot {
  std::atomic<std::uint64_t> phase;      ///< Phase, seq_cst journal order
  std::atomic<std::uint64_t> attempt;    ///< packed attempt word
  std::atomic<std::uint64_t> head_snap;  ///< head read at exit start
  std::atomic<std::uint64_t> held;       ///< instance for the next switch
  std::atomic<std::uint64_t> old_spn;    ///< spin node saved at last Cleanup
  std::atomic<std::uint64_t> current;    ///< instance joined by this attempt
  std::atomic<std::uint64_t> ann_desc;   ///< announced op: (seq << 2) | op
  std::atomic<std::uint64_t> ann_pre;    ///< pre-image of the announced CAS
  std::atomic<std::uint64_t> ann_aux;    ///< switch's journaled spin node
  std::atomic<std::uint64_t> landed;     ///< max seq proven landed (CAS-max)
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(PassageSlot);

/// The stripe's metrics sink: journals doorway slot assignment and grant
/// acknowledgment into the passage slots (that is the recovery journal), and
/// forwards every hook to the segment-hosted obs::Metrics — which is how
/// passages, recovered ones included (the recoverer drives the same hooks),
/// survive the process. It speaks the Metrics vocabulary: each lock's
/// SinkHandle supplies the stripe and one-shot instance, so one sink serves
/// the whole stripe.
class RecoverySink {
 public:
  static constexpr bool kEnabled = true;

  RecoverySink(PassageSlot* slots, obs::Metrics& shm)
      : slots_(slots), shm_(shm) {}

  void on_enter(std::uint32_t stripe, Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    slots_[p].attempt.store(pack_attempt(slot, instance),
                            std::memory_order_seq_cst);
    shm_.on_enter(stripe, p, slot, instance);
  }
  void on_granted(std::uint32_t stripe, Pid p, std::uint32_t slot,
                  std::uint32_t instance) {
    slots_[p].attempt.fetch_or(kAttemptGranted, std::memory_order_seq_cst);
    shm_.on_granted(stripe, p, slot, instance);
  }
  void on_abort(std::uint32_t stripe, Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    shm_.on_abort(stripe, p, slot, instance);
  }
  void on_exit(std::uint32_t stripe, Pid p, std::uint32_t slot,
               std::uint32_t instance) {
    shm_.on_exit(stripe, p, slot, instance);
  }
  void on_switch(std::uint32_t stripe, Pid p, std::uint32_t installed) {
    shm_.on_switch(stripe, p, installed);
  }
  void on_spin_iteration(Pid p) { shm_.on_spin_iteration(p); }
  void on_findnext(Pid p) { shm_.on_findnext(p); }
  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    shm_.on_spin_node_recycle(p, nodes);
  }
  void on_recovery_arm(obs::EventKind kind, std::uint32_t stripe, Pid exec,
                       Pid victim, std::uint32_t slot,
                       std::uint32_t instance) {
    shm_.on_recovery_arm(kind, stripe, exec, victim, slot, instance);
  }

 private:
  PassageSlot* slots_;
  obs::Metrics& shm_;
};

/// Spin-node pool with all of its state — go words, announce pins, and the
/// free/issued marks — in shm. Unlike core::SpinNodePool there are no
/// process-local free lists: allocation scans the owner's N+1 state marks
/// (O(N), and only on an instance switch, which the transformation already
/// charges O(N) work to), because the marks must survive the owner's death
/// for the recoverer and for the pid's next leaseholder.
class ShmSpinNodePool {
 public:
  using Word = ShmSpace::Word;

  static constexpr std::uint64_t kNoPin = ~std::uint64_t{0};
  static constexpr std::uint32_t kStateFree = 0;
  static constexpr std::uint32_t kStateIssued = 1;

  struct Node {
    Word* go = nullptr;
  };

  ShmSpinNodePool(ShmSpace& space, Pid nprocs, std::uint32_t per_pool)
      : space_(space), nprocs_(nprocs), per_pool_(per_pool) {
    const std::size_t total = static_cast<std::size_t>(nprocs) * per_pool;
    // Node indices are journaled into the 16-bit LockDesc.Spn field; the
    // nprocs <= 254 cap (LockDesc packing) keeps total <= 254 * 255.
    AML_ASSERT(total < (1u << 16), "spin-node index exceeds Spn field");
    nodes_.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      nodes_.push_back(Node{space_.alloc(1, 0)});
    }
    announce_.reserve(nprocs);
    for (Pid p = 0; p < nprocs; ++p) {
      announce_.push_back(space_.alloc(1, kNoPin));
    }
    // Zero-filled pages decode as "all free", so the marks need no init.
    states_ = space_.arena().alloc_array<std::atomic<std::uint32_t>>(total);
  }

  ShmSpinNodePool(const ShmSpinNodePool&) = delete;
  ShmSpinNodePool& operator=(const ShmSpinNodePool&) = delete;

  Node& node(std::uint32_t global_idx) { return nodes_[global_idx]; }
  /// The shm pool reports no recycles.
  void set_metrics(RecoverySink*, std::uint32_t /*stripe*/) {}
  std::size_t total_nodes() const { return nodes_.size(); }

  /// Publish that `owner` holds `global_idx` as its oldSpn (see
  /// core::SpinNodePool::publish_pin). `exec` performs the write — during
  /// recovery it differs from `owner`, and the pin still lands in the
  /// *owner's* announce word so it protects the pid's next leaseholder.
  void publish_pin(Pid exec, Pid owner, std::uint32_t global_idx) {
    space_.write(exec, *announce_[owner], global_idx);
  }

  /// Allocation is two steps, for journaled switches: `select` picks a
  /// reusable node (go == 0) from `owner`'s pool WITHOUT marking it issued,
  /// so the caller can journal the choice (PassageSlot.ann_aux) first;
  /// `commit` then marks it. Both the mark and `unalloc` are idempotent
  /// plain stores, so a recoverer can safely redo whichever side of the
  /// journal write the victim died on. Serialized per owner: the owner
  /// itself, or (after its death) the single recoverer holding its
  /// registry claim.
  std::uint32_t select(Pid exec, Pid owner) {
    const std::uint32_t base = owner * per_pool_;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t k = 0; k < per_pool_; ++k) {
        if (states_[base + k].load(std::memory_order_acquire) == kStateFree) {  // AML_X_EDGE(ipc.node_state)
          return base + k;
        }
      }
      reclaim(exec, owner);
    }
    AML_ASSERT(false, "shm spin-node pool exhausted: invariant violated");
    return 0;
  }

  void commit(std::uint32_t global_idx) {
    states_[global_idx].store(kStateIssued, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

  /// Return a node that never became visible (install CAS lost).
  void unalloc(Pid /*exec*/, Pid owner, std::uint32_t global_idx) {
    AML_ASSERT(global_idx / per_pool_ == owner, "unalloc by non-owner");
    states_[global_idx].store(kStateFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

 private:
  /// Same quiescence test as core::SpinNodePool::reclaim: a node is
  /// reusable once retired (go == 1, set by the switch that replaced it)
  /// and pinned by no announce entry.
  void reclaim(Pid exec, Pid owner) {
    const std::uint32_t base = owner * per_pool_;
    std::vector<bool> pinned(per_pool_, false);
    for (Pid p = 0; p < nprocs_; ++p) {
      const std::uint64_t pin = space_.read(exec, *announce_[p]);
      if (pin != kNoPin && pin / per_pool_ == static_cast<std::uint64_t>(
                                                  owner)) {
        pinned[pin % per_pool_] = true;
      }
    }
    for (std::uint32_t k = 0; k < per_pool_; ++k) {
      const std::uint32_t idx = base + k;
      if (states_[idx].load(std::memory_order_acquire) != kStateIssued ||  // AML_X_EDGE(ipc.node_state)
          pinned[k]) {
        continue;
      }
      if (space_.read(exec, *nodes_[idx].go) != 1) continue;  // installed
      space_.write(exec, *nodes_[idx].go, 0);
      states_[idx].store(kStateFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
    }
  }

  ShmSpace& space_;
  Pid nprocs_;
  std::uint32_t per_pool_;
  std::vector<Node> nodes_;
  std::vector<Word*> announce_;
  std::atomic<std::uint32_t>* states_ = nullptr;  ///< shm, survives owners
};


/// The durable journal of core::LongLivedLock (see the file header): the
/// PassageSlot words, the stamped LockDesc codec, the recoverable F&A with
/// its helping rule, the journaled switch, and ShmSpinNodePool. Its hook
/// set mirrors core::NullJournal's; the rest is what the recovery front
/// reads post-mortem.
class RecoverableJournal {
  // LockDesc packing (low to high): Refcnt | Spn | Lock | StampPid |
  // StampSeq. The stamp names the last recoverable F&A that landed on the
  // word: the 8-bit pid of the announcer and the low 24 bits of its
  // announcement sequence (see the file header for the decidability rule).
  static constexpr std::uint32_t kRefBits = 8;
  static constexpr std::uint32_t kSpnBits = 16;
  static constexpr std::uint32_t kLockBits = 8;
  static constexpr std::uint32_t kStampPidBits = 8;
  static constexpr std::uint32_t kStampSeqBits = 24;
  static constexpr std::uint64_t kStampSeqMask = (1ull << kStampSeqBits) - 1;
  static constexpr std::uint32_t kNoSpn = ~std::uint32_t{0};

 public:
  static constexpr bool kDurable = true;
  static constexpr Pid kMaxProcs = (1u << kRefBits) - 2;
  static constexpr std::uint32_t kNoStampPid = (1u << kStampPidBits) - 1;
  template <typename, typename>
  using Pool = ShmSpinNodePool;

  struct Desc {
    std::uint32_t lock;
    std::uint32_t spn;
    std::uint32_t refcnt;
    std::uint32_t stamp_pid;
    std::uint32_t stamp_seq;
  };
  struct Released {
    Desc pre;            ///< decoded pre-image of the landed CAS
    std::uint64_t post;  ///< the stamped word the CAS installed
  };

  /// Both roles allocate the slots (deterministic replay); only the creator
  /// stores their initial values. Fresh segment pages are zero-filled, and
  /// zero already reads as phase kIdle, no attempt, no announcement, nothing
  /// landed; only the three fields with nonzero initial values need a store.
  RecoverableJournal(ShmSpace& space, Pid nprocs)
      : creating_(space.arena().creating()), nprocs_(nprocs) {
    slots_ = space.arena().alloc_array<PassageSlot>(nprocs);
    if (!creating_) return;
    for (Pid p = 0; p < nprocs; ++p) {
      slots_[p].held.store(p + 1, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      slots_[p].old_spn.store(kNoSpn, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      slots_[p].ann_aux.store(kAuxNone, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
    }
  }

  RecoverableJournal(const RecoverableJournal&) = delete;
  RecoverableJournal& operator=(const RecoverableJournal&) = delete;

  static std::uint64_t pack(std::uint32_t lock, std::uint32_t spn,
                            std::uint32_t refcnt,
                            std::uint32_t stamp_pid = kNoStampPid,
                            std::uint64_t stamp_seq = 0) {
    return static_cast<std::uint64_t>(refcnt) |
           (static_cast<std::uint64_t>(spn) << kRefBits) |
           (static_cast<std::uint64_t>(lock) << (kRefBits + kSpnBits)) |
           (static_cast<std::uint64_t>(stamp_pid)
            << (kRefBits + kSpnBits + kLockBits)) |
           ((stamp_seq & kStampSeqMask)
            << (kRefBits + kSpnBits + kLockBits + kStampPidBits));
  }
  static Desc unpack(std::uint64_t raw) {
    Desc d;
    d.refcnt = static_cast<std::uint32_t>(raw & ((1u << kRefBits) - 1));
    d.spn = static_cast<std::uint32_t>((raw >> kRefBits) &
                                       ((1u << kSpnBits) - 1));
    d.lock = static_cast<std::uint32_t>((raw >> (kRefBits + kSpnBits)) &
                                        ((1u << kLockBits) - 1));
    d.stamp_pid = static_cast<std::uint32_t>(
        (raw >> (kRefBits + kSpnBits + kLockBits)) &
        ((1u << kStampPidBits) - 1));
    d.stamp_seq = static_cast<std::uint32_t>(
        raw >> (kRefBits + kSpnBits + kLockBits + kStampPidBits));
    return d;
  }

  /// LockDesc's initial value: instance 0, node 0 of pid 0 (the first free
  /// node of a fresh pool), Refcnt 0. Only the creator marks the node
  /// issued; the mark is shm state outside the arena cursor, so the
  /// attacher skipping it keeps the replay aligned.
  std::uint64_t initial_desc(ShmSpinNodePool& pool) {
    if (creating_) pool.commit(0);
    return pack(0, 0, 0);
  }

  // --- passage record ----------------------------------------------------

  void mark(Pid owner, Phase phase) {
    slots_[owner].phase.store(phase, std::memory_order_seq_cst);
  }
  void begin(Pid owner) {
    slots_[owner].attempt.store(0, std::memory_order_seq_cst);
    slots_[owner].phase.store(kSpinWait, std::memory_order_seq_cst);
  }
  void finish(Pid owner) {
    slots_[owner].attempt.store(0, std::memory_order_seq_cst);
    slots_[owner].phase.store(kIdle, std::memory_order_seq_cst);
  }
  template <typename OneShot>
  void releasing(Pid owner, OneShot& lock) {
    slots_[owner].head_snap.store(lock.peek_head(owner),
                                  std::memory_order_seq_cst);
    slots_[owner].phase.store(kReleasing, std::memory_order_seq_cst);
  }

  // --- the lock's per-process locals ------------------------------------

  std::uint32_t held(Pid p) const { return load(slots_[p].held); }
  void set_held(Pid p, std::uint32_t v) {
    slots_[p].held.store(v, std::memory_order_seq_cst);
  }
  std::uint32_t old_spn(Pid p) const { return load(slots_[p].old_spn); }
  void set_old_spn(Pid p, std::uint32_t v) {
    slots_[p].old_spn.store(v, std::memory_order_seq_cst);
  }
  std::uint32_t current(Pid p) const { return load(slots_[p].current); }
  void set_current(Pid p, std::uint32_t v) {
    slots_[p].current.store(v, std::memory_order_seq_cst);
  }

  // --- LockDesc updates and spin nodes -----------------------------------

  Desc join(ShmSpace& space, Pid exec, Pid owner, ShmSpace::Word& word) {
    return rmw(space, exec, owner, kAnnOpJoin, word).pre;
  }
  Released release(ShmSpace& space, Pid exec, Pid owner,
                   ShmSpace::Word& word) {
    return rmw(space, exec, owner, kAnnOpRelease, word);
  }
  /// `exec` performs the write; the pin lands in the *owner's* announce
  /// word so it protects the pid's next leaseholder.
  static void pin(ShmSpinNodePool& pool, Pid exec, Pid owner,
                  std::uint32_t idx) {
    pool.publish_pin(exec, owner, idx);
  }

  /// The instance switch as a journaled announcement: ann_pre takes the
  /// expected word and ann_aux the chosen spin node BEFORE the CAS, so a
  /// recoverer can redo the identical switch (same sequence number) or
  /// compensate it after a death anywhere inside.
  std::uint64_t announce_switch(Pid owner, std::uint64_t expected) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq = next_seq(owner);
    own.ann_pre.store(expected, std::memory_order_seq_cst);
    own.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
    own.ann_desc.store(ann_pack(seq, kAnnOpSwitch),
                       std::memory_order_seq_cst);
    return seq;
  }
  /// The switch's node: the journaled one on a redo, else a fresh pick
  /// journaled before it is marked issued (both steps idempotent, so a
  /// redo covers a death on either side of the journal write).
  std::uint32_t take_node(ShmSpinNodePool& pool, Pid exec, Pid owner) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t aux = own.ann_aux.load(std::memory_order_seq_cst);
    std::uint32_t idx;
    if (aux != kAuxNone) {
      idx = static_cast<std::uint32_t>(aux);
    } else {
      idx = pool.select(exec, owner);
      own.ann_aux.store(idx, std::memory_order_seq_cst);
    }
    pool.commit(idx);
    return idx;
  }
  void drop_node(ShmSpinNodePool& pool, Pid exec, Pid owner,
                 std::uint32_t idx) {
    pool.unalloc(exec, owner, idx);
    slots_[owner].ann_aux.store(kAuxNone, std::memory_order_seq_cst);
  }
  bool install(ShmSpace& space, Pid exec, Pid owner, ShmSpace::Word& word,
               std::uint64_t expected, std::uint32_t lock, std::uint32_t spn,
               std::uint64_t seq) {
    help_landed(expected);
    if (!space.cas(exec, word, expected,
                   pack(lock, spn, 0, static_cast<std::uint32_t>(owner),
                        seq))) {
      return false;
    }
    bump_landed(owner, seq);
    return true;
  }
  void switched(Pid owner) {
    slots_[owner].ann_aux.store(kAuxNone, std::memory_order_seq_cst);
  }

  // --- what the recovery front reads -------------------------------------

  PassageSlot& slot(Pid p) { return slots_[p]; }
  const PassageSlot& slot(Pid p) const { return slots_[p]; }

  /// Announce `op` for `owner` under its next sequence number.
  std::uint64_t announce(Pid owner, std::uint64_t op) {
    const std::uint64_t seq = next_seq(owner);
    slots_[owner].ann_desc.store(ann_pack(seq, op), std::memory_order_seq_cst);
    return seq;
  }

  /// The post-mortem decision predicate (file header): did `victim`'s
  /// announced op `seq` land, given a LockDesc value `word` read just
  /// before? Word first, landed second — a concurrent overwrite between
  /// the two loads has already credited `landed`.
  bool announced_landed(std::uint64_t word, Pid victim,
                        std::uint64_t seq) const {
    const Desc d = unpack(word);
    if (d.stamp_pid == static_cast<std::uint32_t>(victim) &&
        d.stamp_seq == (seq & kStampSeqMask)) {
      return true;
    }
    return slots_[victim].landed.load(std::memory_order_seq_cst) >= seq;
  }

 private:
  static std::uint32_t load(const std::atomic<std::uint64_t>& w) {
    return static_cast<std::uint32_t>(w.load(std::memory_order_seq_cst));
  }

  std::uint64_t next_seq(Pid owner) const {
    return ann_seq(slots_[owner].ann_desc.load(std::memory_order_seq_cst)) +
           1;
  }

  /// The recoverable F&A (file header): announce in `owner`'s slot, then
  /// CAS-with-stamp until it lands. `exec` performs every memory operation;
  /// during recovery it differs from `owner` — the announcement and stamp
  /// still carry the *owner's* identity, so if the recoverer itself dies,
  /// the next recoverer reads one coherent journal (the owner's).
  Released rmw(ShmSpace& space, Pid exec, Pid owner, std::uint64_t op,
               ShmSpace::Word& word) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq = next_seq(owner);
    own.ann_desc.store(ann_pack(seq, op), std::memory_order_seq_cst);
    for (;;) {
      const std::uint64_t w = space.read(exec, word);
      help_landed(w);
      own.ann_pre.store(w, std::memory_order_seq_cst);
      const Desc d = unpack(w);
      AML_DASSERT(op == kAnnOpJoin ? d.refcnt < kMaxProcs : d.refcnt >= 1,
                  "LockDesc refcnt out of range in recoverable F&A");
      const std::uint32_t refcnt =
          op == kAnnOpJoin ? d.refcnt + 1 : d.refcnt - 1;
      const std::uint64_t desired = pack(
          d.lock, d.spn, refcnt, static_cast<std::uint32_t>(owner), seq);
      if (space.cas(exec, word, w, desired)) {
        bump_landed(owner, seq);
        return {d, desired};
      }
    }
  }

  /// Helping rule 1: before a word stamped (q, s) can be overwritten, the
  /// overwriter credits q's announcement if it is still the announced op.
  /// (If q has already announced a later op, q itself recorded s via rule 2
  /// before announcing, so nothing is lost by skipping.)
  void help_landed(std::uint64_t w) {
    const Desc d = unpack(w);
    if (d.stamp_pid >= static_cast<std::uint32_t>(nprocs_)) return;
    const Pid q = static_cast<Pid>(d.stamp_pid);
    const std::uint64_t ann =
        slots_[q].ann_desc.load(std::memory_order_seq_cst);
    if ((ann_seq(ann) & kStampSeqMask) == d.stamp_seq) {
      bump_landed(q, ann_seq(ann));
    }
  }

  /// CAS-max on `owner`'s landed word (monotone: sequences only grow).
  void bump_landed(Pid owner, std::uint64_t seq) {
    std::uint64_t cur = slots_[owner].landed.load(std::memory_order_seq_cst);
    while (cur < seq && !slots_[owner].landed.compare_exchange_weak(
                            cur, seq, std::memory_order_seq_cst)) {
    }
  }

  bool creating_;
  Pid nprocs_;
  PassageSlot* slots_ = nullptr;    ///< shm, one per pid
};

/// What a recovery pass did with a victim's passage on one stripe.
enum class RecoveryAction : std::uint8_t {
  kNone,         ///< victim was idle / pre-doorway here: nothing to repair
  kForcedAbort,  ///< waiting victim driven through the abort path
  kForcedExit,   ///< granted/holding victim's CS force-exited + cleaned up
  kResignalled,  ///< death mid-exit: hand-off re-driven from head_snap
  kZombie,       ///< death in the doorway before the sink's slot record —
                 ///  the one remaining journal-blind window; pid retired
                 ///  (reclaimable after a quiescence epoch, see registry)
};

/// One stripe of the shm service: the long-lived lock (enter, exit and the
/// introspection it has in process) plus the recovery front that finishes
/// a dead process's passage from its journal.
class ShmStripe
    : private core::LongLivedLock<ShmSpace, core::VersionedSpace,
                                  core::OneShotLock, RecoverySink,
                                  RecoverableJournal> {
 public:
  using LongLivedLock::Config;
  using LongLivedLock::enter;
  using LongLivedLock::exit;
  using LongLivedLock::peek_installed;
  using LongLivedLock::peek_refcnt;

  /// Both roles run the identical construction (deterministic replay); only
  /// the creator's word allocations store initial values, and only the
  /// creator touches non-arena shm state (spin-node marks, PassageSlots).
  /// `shm` is the segment-placed sink (crash-surviving: see
  /// obs/metrics.hpp); `stripe_id` tags every event this stripe emits into
  /// its ring.
  ShmStripe(ShmSpace& space, Config config, obs::Metrics& shm,
            std::uint32_t stripe_id)
      : LongLivedLock(space, config),
        space_(space),
        sink_(&journal().slot(0), shm),
        stripe_id_(stripe_id) {
    recovery_ = space_.alloc(1, 0);
    set_metrics(&sink_, stripe_id);
  }

  ShmStripe(const ShmStripe&) = delete;
  ShmStripe& operator=(const ShmStripe&) = delete;

  // --- recovery ----------------------------------------------------------

  /// Repair `victim`'s passage on this stripe, executing as `exec` (the
  /// recoverer's leased pid — all memory operations are its own steps; the
  /// victim pid is only the journal being read). Caller must hold the
  /// victim's registry recovery claim; this takes the per-stripe recovery
  /// seqlock around the repair. Returns what was done; kZombie means the
  /// victim died in the doorway's journal-blind window and its pid must be
  /// retired (reclaimable once a quiescence epoch proves no references).
  RecoveryAction recover(Pid exec, Pid victim, std::uint64_t exec_os_pid) {
    lock_recovery(exec, exec_os_pid);
    const RecoveryAction action = recover_locked(exec, victim);
    unlock_recovery(exec);
    return action;
  }

  // --- introspection -----------------------------------------------------

  Phase peek_phase(Pid p) const {
    return static_cast<Phase>(
        journal().slot(p).phase.load(std::memory_order_seq_cst));
  }
  /// The raw announced-op word ((seq << 2) | op) of `p`'s journal.
  std::uint64_t peek_announcement(Pid p) const {
    return journal().slot(p).ann_desc.load(std::memory_order_seq_cst);
  }
  /// Highest announcement sequence of `p` proven landed.
  std::uint64_t peek_landed(Pid p) const {
    return journal().slot(p).landed.load(std::memory_order_seq_cst);
  }
  /// Completed recovery passes on this stripe (seqlock sequence number).
  std::uint64_t recovery_epoch(Pid self) {
    return space_.read(self, *recovery_) >> 32;
  }

  /// Reset `p`'s journal to the leasable baseline (phase kIdle, attempt
  /// cleared). Only valid once the table's reclamation gate has held: the
  /// quiescence epoch proves no live passage still reads the journal, and a
  /// frozen phase in {kIdle, kSpinWait, kPreJoin} leaves nothing in the
  /// stripe itself to repair.
  void clear_journal(Pid p) { journal().finish(p); }

  /// Test hook: forge a pid's journaled phase so recovery arms can be
  /// staged without a precisely-timed crash.
  void debug_set_phase(Pid p, Phase phase) { journal().mark(p, phase); }

  /// Test hook: overwrite `p`'s announcement sequence (op kept), so the
  /// 24-bit stamp truncation can be driven across its wrap.
  void debug_set_announcement_seq(Pid p, std::uint64_t seq) {
    PassageSlot& my = journal().slot(p);
    const std::uint64_t op =
        ann_op(my.ann_desc.load(std::memory_order_seq_cst));
    my.ann_desc.store(ann_pack(seq, op), std::memory_order_seq_cst);
  }

  /// Test hook: overwrite the recovery seqlock word, so its 32-bit
  /// sequence can be driven across its wrap.
  void debug_poke_recovery(std::uint64_t word) {
    space_.write(0, *recovery_, word);
  }

  /// Test hook: replay exactly the kJoined crash window for `p` — the join
  /// F&A has run (refcnt bumped, current instance recorded) but no doorway
  /// presence exists yet — so the abort-on-behalf repair of a pid dead in
  /// that window can be staged deterministically. Leaves real, consistent
  /// stripe state: recovery's one Cleanup undoes it completely.
  void debug_forge_joined(Pid p) {
    journal().begin(p);
    journal().set_current(p, join(p, p).lock);
    journal().mark(p, kJoined);
  }

  /// Test hook: death at kPreJoin with the join announced but its CAS never
  /// issued. The compensation arm must conclude "did not land" and abandon
  /// the join (refcnt untouched).
  void debug_forge_prejoin_announced(Pid p) {
    journal().begin(p);
    journal().mark(p, kPreJoin);
    journal().announce(p, kAnnOpJoin);
  }

  /// Test hook: death at kPreJoin one instruction after the join CAS landed
  /// (before the kJoined phase store). The completion arm must conclude
  /// "landed" and undo the join with one Cleanup.
  void debug_forge_prejoin_landed(Pid p) {
    journal().begin(p);
    journal().mark(p, kPreJoin);
    join(p, p);
  }

  /// Test hook: death at kCleanup before the release was announced. The
  /// recovery arm must rerun the whole Cleanup under a fresh announcement.
  void debug_forge_cleanup_announced(Pid p) {
    debug_forge_joined(p);
    journal().mark(p, kCleanup);
    journal().announce(p, kAnnOpRelease);
  }

  /// Test hook: death at kCleanup right after the release CAS landed —
  /// locals unsaved, instance switch (if owed) not yet announced. The
  /// completion arm must finish both from the journaled pre-image.
  void debug_forge_cleanup_released(Pid p) {
    debug_forge_joined(p);
    journal().mark(p, kCleanup);
    release(p, p);
  }

  /// Test hook: death at kCleanup with the release landed and the instance
  /// switch announced but its CAS never issued. Recovery must redo the very
  /// same switch (same sequence number) or compensate if the world moved.
  void debug_forge_cleanup_switch_announced(Pid p) {
    debug_forge_joined(p);
    journal().mark(p, kCleanup);
    const auto r = release(p, p);
    journal().set_old_spn(p, r.pre.spn);
    if (r.pre.refcnt != 1) return;  // forge needs sole membership to switch
    journal().announce_switch(p, r.post);
  }

 private:
  RecoveryAction recover_locked(Pid exec, Pid victim) {
    PassageSlot& v = journal().slot(victim);
    const std::uint64_t phase = v.phase.load(std::memory_order_seq_cst);
    const std::uint64_t att = v.attempt.load(std::memory_order_seq_cst);
    const std::uint32_t cur_inst = static_cast<std::uint32_t>(
        v.current.load(std::memory_order_seq_cst));
    switch (phase) {
      case kIdle:
      case kSpinWait:
        // No shared footprint: LockDesc untouched, no queue slot. The pid
        // can be re-leased as-is (its held/old_spn locals stay valid).
        journal().finish(victim);
        return RecoveryAction::kNone;
      case kPreJoin: {
        // The join F&A is journaled: decide post-mortem whether the
        // announced increment landed, then complete the passage (one
        // Cleanup undoes a bare join) or compensate (nothing to undo) —
        // never a zombie. A non-join announcement here is the *previous*
        // passage's release/switch, long landed and finished: every
        // passage announces its join before anything else, so a pending
        // join is always the newest announcement under kPreJoin.
        const std::uint64_t ann = v.ann_desc.load(std::memory_order_seq_cst);
        if (ann_op(ann) != kAnnOpJoin) {
          journal().finish(victim);
          return RecoveryAction::kNone;
        }
        if (journal().announced_landed(read_desc(exec), victim,
                                       ann_seq(ann))) {
          return cleaned_up(RecoveryAction::kForcedAbort,
                            obs::EventKind::kFaCompleted, exec, victim,
                            obs::kNoSlot, cur_inst);
        }
        journal().finish(victim);
        record_recovery(obs::EventKind::kFaCompensated, exec, victim,
                        obs::kNoSlot, cur_inst);
        return RecoveryAction::kNone;
      }
      case kJoined:
        // Refcnt is incremented but no doorway F&A happened: the passage
        // has no queue presence, so the repair is exactly one Cleanup.
        return cleaned_up(RecoveryAction::kForcedAbort,
                          obs::EventKind::kAbortOnBehalf, exec, victim,
                          obs::kNoSlot, cur_inst);
      case kDoorway: {
        if ((att & kAttemptRecorded) == 0) {
          // In the one-shot doorway but the tail F&A may or may not have
          // run (the sink journals immediately after it). This is the one
          // window the journal still cannot attribute; the pid is retired
          // and waits for epoch reclamation.
          record_recovery(obs::EventKind::kZombieRetire, exec, victim,
                          obs::kNoSlot, cur_inst);
          return RecoveryAction::kZombie;
        }
        const std::uint32_t slot = attempt_slot(att);
        const std::uint32_t inst_idx = attempt_instance(att);
        auto& inst = resume(exec, inst_idx);
        // Granted if the victim acknowledged it, or if the signal already
        // landed in go[slot] (a signal racing the crash: the grant stands,
        // so the passage must be exited, not aborted — aborting would strand
        // the hand-off).
        if ((att & kAttemptGranted) != 0 || inst.peek_go(exec, slot) != 0) {
          inst.complete_grant(exec, slot);
          inst.exit(exec);
          return cleaned_up(RecoveryAction::kForcedExit,
                            obs::EventKind::kCompleteGrant, exec, victim,
                            slot, inst_idx);
        }
        inst.abort_on_behalf(exec, slot);
        return cleaned_up(RecoveryAction::kForcedAbort,
                          obs::EventKind::kAbortOnBehalf, exec, victim,
                          slot, inst_idx);
      }
      case kHolding: {
        const std::uint32_t inst_idx = attempt_instance(att);
        resume(exec, inst_idx).exit(exec);
        return cleaned_up(RecoveryAction::kForcedExit,
                          obs::EventKind::kForcedExit, exec, victim,
                          attempt_slot(att), inst_idx);
      }
      case kReleasing: {
        const std::uint32_t inst_idx = attempt_instance(att);
        auto& inst = resume(exec, inst_idx);
        const std::uint64_t head_snap =
            v.head_snap.load(std::memory_order_seq_cst);
        if (inst.peek_last_exited(exec) != head_snap) {
          // Died before LastExited was written: redo the whole exit.
          inst.exit(exec);
          return cleaned_up(RecoveryAction::kForcedExit,
                            obs::EventKind::kForcedExit, exec, victim,
                            attempt_slot(att), inst_idx);
        }
        // LastExited written; the SignalNext may or may not have run.
        // FindNext from the same head re-finds the same successor (exit
        // never removes the head from the tree) and a duplicate go write
        // is absorbed, so re-driving it is safe either way.
        inst.resignal_from(exec, static_cast<std::uint32_t>(head_snap));
        return cleaned_up(RecoveryAction::kResignalled,
                          obs::EventKind::kResignal, exec, victim,
                          attempt_slot(att), inst_idx);
      }
      case kCleanup:
        return recover_cleanup_arm(exec, victim, v, att, cur_inst);
      default:
        AML_ASSERT(false, "corrupt phase word in recovery");
        return RecoveryAction::kZombie;
    }
  }

  /// Death inside Cleanup: the journal names exactly which step was in
  /// flight — the release F&A (announced / landed) or the instance-switch
  /// CAS (announced, with its pre-image and chosen node) — and every arm
  /// either completes the landed op forward or compensates the un-landed
  /// one. Never a zombie.
  RecoveryAction recover_cleanup_arm(Pid exec, Pid victim, PassageSlot& v,
                                     std::uint64_t att,
                                     std::uint32_t cur_inst) {
    const RecoveryAction action = (att & kAttemptGranted) != 0
                                      ? RecoveryAction::kForcedExit
                                      : RecoveryAction::kForcedAbort;
    const std::uint32_t slot =
        (att & kAttemptRecorded) != 0 ? attempt_slot(att) : obs::kNoSlot;
    const std::uint64_t ann = v.ann_desc.load(std::memory_order_seq_cst);
    const std::uint64_t seq = ann_seq(ann);
    const std::uint64_t pre_raw = v.ann_pre.load(std::memory_order_seq_cst);
    const Desc pre = RecoverableJournal::unpack(pre_raw);
    obs::EventKind kind = obs::EventKind::kFaCompensated;
    const auto landed = [&] {
      return journal().announced_landed(read_desc(exec), victim, seq);
    };
    switch (ann_op(ann)) {
      case kAnnOpSwitch:
        // The release already landed (a switch is only announced after its
        // release returned); the victim died inside the switch.
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (landed()) {
          finish_switch(exec, victim, pre);
          kind = obs::EventKind::kFaCompleted;
        } else if (read_desc(exec) == pre_raw) {
          // Word untouched since the announcement: redo the same switch
          // under the same sequence number.
          if (install_switch(exec, victim, pre_raw, seq)) {
            kind = obs::EventKind::kFaCompleted;
          }
        } else {
          // A joiner moved the word: the switch must be abandoned. Free
          // the journaled node if one was chosen.
          const std::uint64_t aux = v.ann_aux.load(std::memory_order_seq_cst);
          if (aux != kAuxNone) {
            journal().drop_node(spin_pool(), exec, victim,
                                static_cast<std::uint32_t>(aux));
          }
        }
        break;
      case kAnnOpRelease:
        if (!landed()) {
          // The decrement never landed: the whole Cleanup simply reruns
          // under a fresh announcement.
          return cleaned_up(action, kind, exec, victim, slot, cur_inst);
        }
        // Decrement landed; the victim died before (or while) saving its
        // locals and switching. Finish both from the journaled pre-image.
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (pre.refcnt == 1) {
          // Last leaver: the switch was never announced — run it fresh
          // against the release's post-image.
          switch_instance(
              exec, victim,
              RecoverableJournal::pack(pre.lock, pre.spn, 0,
                                       static_cast<std::uint32_t>(victim),
                                       seq));
        }
        kind = obs::EventKind::kFaCompleted;
        break;
      default:
        // Death right at the kCleanup phase store, before the release was
        // announced (the announcement is still the passage's landed join):
        // nothing is in flight; run the Cleanup from scratch.
        return cleaned_up(action, kind, exec, victim, slot, cur_inst);
    }
    journal().finish(victim);
    record_recovery(kind, exec, victim, slot, cur_inst);
    return action;
  }

  /// The common tail of a repair: the victim's Cleanup, run as a proxy,
  /// then its journal reset and exactly one typed event — emitted after
  /// the repair steps so a reader that sees the event also sees the
  /// repaired stripe state.
  RecoveryAction cleaned_up(RecoveryAction action, obs::EventKind kind,
                            Pid exec, Pid victim, std::uint32_t slot,
                            std::uint32_t instance) {
    journal().mark(victim, kCleanup);
    cleanup(exec, victim);
    journal().finish(victim);
    record_recovery(kind, exec, victim, slot, instance);
    return action;
  }

  // Per-stripe recovery seqlock: (sequence << 32) | holder_os_pid, free
  // when the low half is 0. A claimant CASes its OS pid in; if the recorded
  // holder is itself dead (ESRCH), the claim is taken over under the same
  // sequence — a crashed *recoverer* must not wedge the stripe forever.
  void lock_recovery(Pid exec, std::uint64_t exec_os_pid) {
    for (;;) {
      const std::uint64_t cur = space_.read(exec, *recovery_);
      const std::uint64_t holder = cur & 0xFFFF'FFFFull;
      if (holder == 0) {
        if (space_.cas(exec, *recovery_, cur,
                       (cur & ~0xFFFF'FFFFull) | exec_os_pid)) {
          return;
        }
        continue;
      }
      if (::kill(static_cast<pid_t>(holder), 0) == -1 && errno == ESRCH) {
        if (space_.cas(exec, *recovery_, cur,
                       (cur & ~0xFFFF'FFFFull) | exec_os_pid)) {
          return;
        }
        continue;
      }
      ::sched_yield();
    }
  }

  void unlock_recovery(Pid exec) {
    const std::uint64_t cur = space_.read(exec, *recovery_);
    space_.write(exec, *recovery_, ((cur >> 32) + 1) << 32);
  }

  /// One typed recovery event, victim pid in the payload.
  void record_recovery(obs::EventKind kind, Pid exec, Pid victim,
                       std::uint32_t slot, std::uint32_t instance) {
    sink_.on_recovery_arm(kind, stripe_id_, exec, victim, slot, instance);
  }

  ShmSpace& space_;
  RecoverySink sink_;
  std::uint32_t stripe_id_;
  ShmSpace::Word* recovery_ = nullptr;  ///< per-stripe recovery seqlock
};

}  // namespace aml::ipc
