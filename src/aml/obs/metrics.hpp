// aml::obs — the observability layer: one metrics sink, two placements.
//
// The lock templates take a Metrics sink type parameter (default
// NullMetrics) and route every instrumentation point through a
// SinkHandle<Metrics> member. The two sink flavors:
//
//   * NullMetrics — the production default. SinkHandle<NullMetrics> is an
//     empty class whose hooks are static no-ops, so with
//     [[no_unique_address]] the sink occupies no storage and the enter/exit
//     hot paths compile to exactly the uninstrumented code: no loads, no
//     stores, no branches. kZeroCostSink<NullMetrics> static_asserts this.
//
//   * Metrics — per-pid cache-padded counters (acquisitions, aborts, spin
//     iterations, FindNext ascents, instance switches, spin-node recycles),
//     per-stripe hand-off words and recovery-dispatch counters, an optional
//     fixed-size event ring, and hand-off / recovery-sweep histograms.
//
// The sink's state is one flat layout of AML_SHM_REGION cells in which the
// all-zero bytes are the valid initial state, so it is placed without a
// single initializing store. It is placed one of two ways, by the same
// allocation sequence (place()) and sized by the same footprint_bytes():
//
//   * in a lock-service segment: ipc::ShmNamedLockTable replays the
//     allocation inside its ShmArena, so a victim's counters and last ring
//     events survive its SIGKILL and any attached process (tools/aml_stat
//     included) reads them. Timestamps are CLOCK_MONOTONIC nanoseconds —
//     comparable across processes on one host, which the sweep histogram
//     and the Perfetto export (trace_export.hpp) need.
//   * on the heap: Metrics(nprocs, stripes, ring_capacity) maps one zeroed,
//     process-private block (ShmArena::anonymous) and places the same
//     layout there. Timestamps are a logical event counter held in the
//     block: deterministic under the step scheduler, and no clock read.
//
// Either way one sink serves a whole table. The hooks are addressed by
// (stripe, pid, slot, instance); a lock names its stripe and one-shot
// instance through the SinkHandle it binds (set_metrics(sink, stripe)), so
// no lock needs a sink object of its own.
//
// Hot-path cost: a per-pid cell is written only by the holder of its pid
// (a recovering survivor writes a dead victim's cell, and the registry's
// recovery claim makes that survivor the only writer), so increments are a
// relaxed load and store — atomic for concurrent readers, no locked RMW.
// Only the hand-off pair reads the clock (on_exit parks a timestamp in the
// stripe's pending word, on_granted claims it); with the ring off no other
// hook touches the clock or the ring.
//
// The ring: a push is one relaxed fetch_add on the shared head plus relaxed
// stores into the claimed slot. Torn slots are *detected*, not prevented:
// every slot carries a sequence tag the writer sets odd while the payload
// is in flight (claim) and even once it is complete (publish).
// ring_snapshot() accepts a slot only when its tag reads as the published
// tag of exactly the sequence number expected there — a stalled writer, a
// wrapped writer, or a stale publish landing after a wrap all leave a
// mismatched tag, and the slot is skipped (and counted) instead of returned
// torn.
//
// A lock is instrumented by instantiating it with the Metrics sink type and
// binding a sink instance:
//
//   aml::obs::Metrics metrics(nprocs, /*stripes=*/1, /*ring_capacity=*/4096);
//   aml::core::OneShotLock<Model, aml::obs::Metrics> lock(model, n, w);
//   lock.set_metrics(&metrics);  // stripe 0
//   ... run ...
//   metrics.totals().acquisitions; metrics.ring_snapshot(); ...
#pragma once

#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "aml/ipc/shm_arena.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

using model::Pid;

/// Slot value for events that have no queue slot (e.g. an abort while
/// waiting on the long-lived lock's spin node, before joining an instance).
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// Event kinds: the passage lifecycle, plus the typed recovery-dispatch
/// arms a survivor executes on a victim's behalf. Numbered from 1 so a
/// zero meta word is never a valid event.
enum class EventKind : std::uint8_t {
  kEnter = 1,        ///< doorway passed; slot assigned
  kGranted,          ///< critical section entered
  kAbort,            ///< attempt abandoned by its owner
  kExit,             ///< critical section released by its owner
  kSwitch,           ///< a fresh one-shot instance was installed
  kForcedExit,       ///< recovery: victim held (or was re-signalled mid-exit
                     ///  redo); survivor exited on its behalf
  kCompleteGrant,    ///< recovery: victim died in the doorway already
                     ///  granted; survivor completed the grant then exited
  kAbortOnBehalf,    ///< recovery: victim died waiting; survivor aborted
                     ///  its attempt
  kResignal,         ///< recovery: victim died mid-exit after the hand-off;
                     ///  survivor re-signalled the successor
  kZombieRetire,     ///< recovery: journal window ambiguous; pid retired
  kFaCompleted,      ///< recovery: victim's announced LockDesc F&A found
                     ///  landed; survivor completed the passage forward
  kFaCompensated,    ///< recovery: announced F&A never landed (or was never
                     ///  issued); survivor compensated / redid it itself
  kReentry,          ///< a restarted process resumed its own prior passage
                     ///  via reattach_session
  kZombieReclaim,    ///< a retired zombie pid reclaimed after a
                     ///  full-quiescence epoch
};

inline const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "enter";
    case EventKind::kGranted: return "granted";
    case EventKind::kAbort: return "abort";
    case EventKind::kExit: return "exit";
    case EventKind::kSwitch: return "switch";
    case EventKind::kForcedExit: return "forced-exit";
    case EventKind::kCompleteGrant: return "complete-grant";
    case EventKind::kAbortOnBehalf: return "forced-abort";
    case EventKind::kResignal: return "resignal";
    case EventKind::kZombieRetire: return "zombie-retire";
    case EventKind::kFaCompleted: return "fa-completed";
    case EventKind::kFaCompensated: return "fa-compensated";
    case EventKind::kReentry: return "re-entry";
    case EventKind::kZombieReclaim: return "zombie-reclaimed";
  }
  return "?";
}

/// True for the kinds a recovery sweep emits on a victim's behalf.
inline bool event_is_recovery(EventKind kind) {
  switch (kind) {
    case EventKind::kForcedExit:
    case EventKind::kCompleteGrant:
    case EventKind::kAbortOnBehalf:
    case EventKind::kResignal:
    case EventKind::kZombieRetire:
    case EventKind::kFaCompleted:
    case EventKind::kFaCompensated:
    case EventKind::kReentry:
    case EventKind::kZombieReclaim:
      return true;
    default:
      return false;
  }
}

// --- histogram geometry ----------------------------------------------------
// Power-of-two buckets: bucket i holds values whose bit width is i, i.e.
// [2^(i-1), 2^i), so reported percentiles are upper bounds with at most 2x
// resolution — the usual trade for a fixed-footprint concurrent histogram.

inline constexpr std::size_t kHistogramBuckets = 65;  ///< bit widths 0..64

inline std::size_t bucket_of(std::uint64_t v) {
  std::size_t width = 0;
  while (v != 0) {
    ++width;
    v >>= 1;
  }
  return width;
}

/// Inclusive upper bound of bucket i (0 -> 0, 1 -> 1, 2 -> 3, 3 -> 7...).
inline std::uint64_t bucket_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

// AML_SHM_REGION_BEGIN
/// Per-pid counter cell, written only by the holder of that pid (see the
/// file header) and padded so neighbours never false-share.
struct alignas(pal::kCacheLine) CounterCell {
  std::atomic<std::uint64_t> acquisitions;
  std::atomic<std::uint64_t> aborts;
  std::atomic<std::uint64_t> spin_iterations;
  std::atomic<std::uint64_t> findnext_ascents;
  std::atomic<std::uint64_t> instance_switches;
  std::atomic<std::uint64_t> spin_node_recycles;
};

/// One ring slot: claim-odd/publish-even tag plus the payload packed into
/// atomic words, so a racing writer tears the *tag check*, never the C++
/// object model. Padded: consecutive writers claim consecutive slots.
struct alignas(pal::kCacheLine) EventSlot {
  std::atomic<std::uint64_t> tag;     ///< 0 never-used; odd claimed; even published
  std::atomic<std::uint64_t> meta;    ///< kind | stripe | pid | victim
  std::atomic<std::uint64_t> detail;  ///< slot | instance
  std::atomic<std::uint64_t> ts;      ///< timestamp (see the file header)
  std::atomic<std::uint64_t> writer;  ///< OS pid of the emitting process
};

/// Single padded shared word (per-stripe pending hand-off timestamps).
struct alignas(pal::kCacheLine) WordCell {
  std::atomic<std::uint64_t> value;
};

/// The ring head, and the logical clock of a heap-placed sink (never
/// advanced in a segment, where timestamps are CLOCK_MONOTONIC).
struct alignas(pal::kCacheLine) RingHeadCell {
  std::atomic<std::uint64_t> head;
  std::atomic<std::uint64_t> clock;
};

/// Shared power-of-two histogram (no min/max: their sentinel init would
/// break the zero-bytes-are-valid rule).
struct alignas(pal::kCacheLine) HistogramCell {
  std::atomic<std::uint64_t> count;
  std::atomic<std::uint64_t> sum;
  std::atomic<std::uint64_t> buckets[kHistogramBuckets];
};

/// Per-stripe recovery dispatch counters. Written only by the (unique)
/// survivor holding that stripe's recovery seqlock, so padding is about
/// keeping reader traffic off unrelated lines, not write contention.
struct alignas(pal::kCacheLine) RecoveryCell {
  std::atomic<std::uint64_t> forced_exits;
  std::atomic<std::uint64_t> complete_grants;
  std::atomic<std::uint64_t> aborts_on_behalf;
  std::atomic<std::uint64_t> resignals;
  std::atomic<std::uint64_t> zombie_retires;
  std::atomic<std::uint64_t> fa_completed;
  std::atomic<std::uint64_t> fa_compensated;
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(CounterCell);
AML_SHM_PLACEABLE(EventSlot);
AML_SHM_PLACEABLE(WordCell);
AML_SHM_PLACEABLE(RingHeadCell);
AML_SHM_PLACEABLE(HistogramCell);
AML_SHM_PLACEABLE(RecoveryCell);
static_assert(sizeof(RingHeadCell) == sizeof(WordCell),
              "the ring head keeps the segment layout of one padded word");

/// A decoded ring event (process-local view; never placed).
struct Event {
  static constexpr Pid kNoPid = 0xFFFF;

  EventKind kind = EventKind::kEnter;
  std::uint32_t stripe = 0;
  Pid pid = 0;                 ///< acting pid (the owner's for lifecycle
                               ///  kinds, the *executor's* for recovery)
  Pid victim = kNoPid;         ///< victim pid for recovery kinds
  std::uint32_t slot = kNoSlot;
  std::uint32_t instance = 0;  ///< one-shot generation within the stripe
  std::uint64_t seq = 0;       ///< position in the ring order
  std::uint64_t ts = 0;        ///< CLOCK_MONOTONIC ns, or logical tick
  std::uint64_t writer_os_pid = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;  ///< bucket upper bounds (nearest rank)
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

struct RecoverySnapshot {
  std::uint64_t forced_exits = 0;
  std::uint64_t complete_grants = 0;
  std::uint64_t aborts_on_behalf = 0;
  std::uint64_t resignals = 0;
  std::uint64_t zombie_retires = 0;
  std::uint64_t fa_completed = 0;
  std::uint64_t fa_compensated = 0;

  std::uint64_t total() const {
    return forced_exits + complete_grants + aborts_on_behalf + resignals +
           zombie_retires + fa_completed + fa_compensated;
  }
};

/// The disabled sink. Never instantiated at runtime; only its type matters.
class NullMetrics {
 public:
  static constexpr bool kEnabled = false;
};

/// The enabled sink.
class Metrics {
 public:
  static constexpr bool kEnabled = true;

  /// Stripe sentinel for events that describe a whole-service transition
  /// (re-entry, zombie reclamation) rather than one stripe.
  static constexpr std::uint32_t kNoStripe = 0xFFFFu;

  /// Heap placement: the layout for `stripes` stripes in a zeroed
  /// process-private block, logical timestamps. `ring_capacity` 0 disables
  /// event recording (counters and the hand-off histogram stay active).
  Metrics(Pid nprocs, std::uint32_t stripes, std::uint32_t ring_capacity)
      : heap_(ipc::ShmArena::anonymous(
            footprint_bytes(nprocs, stripes, ring_capacity))),
        nprocs_(nprocs),
        stripes_(stripes),
        ring_capacity_(ring_capacity) {
    place(*heap_);
  }

  /// Arena placement: both segment roles replay the same allocation
  /// sequence; zero pages are the valid initial state, so construction
  /// performs no stores at all. Timestamps are CLOCK_MONOTONIC.
  Metrics(ipc::ShmArena& arena, Pid nprocs, std::uint32_t stripes,
          std::uint32_t ring_capacity)
      : nprocs_(nprocs), stripes_(stripes), ring_capacity_(ring_capacity) {
    place(arena);
  }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Arena bytes the placement consumes. Must mirror place() exactly.
  static std::uint64_t footprint_bytes(Pid nprocs, std::uint32_t stripes,
                                       std::uint32_t ring_capacity) {
    std::uint64_t b = 0;
    b += static_cast<std::uint64_t>(nprocs) * sizeof(CounterCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(WordCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(RecoveryCell);
    b += sizeof(RingHeadCell);
    b += static_cast<std::uint64_t>(ring_capacity) * sizeof(EventSlot);
    b += 2 * sizeof(HistogramCell);
    b += 8 * pal::kCacheLine;  // alignment slop between allocations
    return b;
  }

  Pid nprocs() const { return nprocs_; }
  std::uint32_t stripes() const { return stripes_; }
  std::uint32_t ring_capacity() const { return ring_capacity_; }

  /// Wall reference for heartbeat ages, sweep durations and the
  /// arena-placed sink's timestamps.
  static std::uint64_t now_ns() {
    struct ::timespec ts {};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  // --- lifecycle hooks (owner pid's own passage) ------------------------

  void on_enter(std::uint32_t stripe, Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    emit(EventKind::kEnter, stripe, p, Event::kNoPid, slot, instance);
  }

  void on_granted(std::uint32_t stripe, Pid p, std::uint32_t slot,
                  std::uint32_t instance) {
    bump(counters_[p].acquisitions);
    const std::uint64_t t = now();
    emit_at(EventKind::kGranted, stripe, p, Event::kNoPid, slot, instance,
            t);
    // Hand-off latency: the previous holder parked its exit timestamp in
    // the stripe's pending word; one exchange claims it. The word is only
    // ever touched by the outgoing and incoming holder — the pair already
    // communicating through the lock word itself — so this adds no *new*
    // contention edge.
    const std::uint64_t handed =
        pending_handoff_[stripe].value.exchange(0, std::memory_order_acq_rel);
    if (handed != 0 && t > handed) record(handoff_hist_[0], t - handed);
  }

  void on_abort(std::uint32_t stripe, Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    bump(counters_[p].aborts);
    emit(EventKind::kAbort, stripe, p, Event::kNoPid, slot, instance);
  }

  void on_exit(std::uint32_t stripe, Pid p, std::uint32_t slot,
               std::uint32_t instance) {
    const std::uint64_t t = now();
    emit_at(EventKind::kExit, stripe, p, Event::kNoPid, slot, instance, t);
    pending_handoff_[stripe].value.store(t, std::memory_order_release);
  }

  /// `installed` is the one-shot instance the switch installed.
  void on_switch(std::uint32_t stripe, Pid p, std::uint32_t installed) {
    bump(counters_[p].instance_switches);
    emit(EventKind::kSwitch, stripe, p, Event::kNoPid, kNoSlot, installed);
  }

  // Counter-only hooks: too frequent for the ring.
  void on_spin_iteration(Pid p) { bump(counters_[p].spin_iterations); }
  void on_findnext(Pid p) { bump(counters_[p].findnext_ascents); }
  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    bump(counters_[p].spin_node_recycles, nodes);
  }

  // --- recovery hooks (survivor `exec` acting for `victim`) -------------

  /// One typed event per dispatch arm, victim pid in the payload, plus the
  /// per-stripe dispatch counter. `kind` must be a recovery kind.
  void on_recovery_arm(EventKind kind, std::uint32_t stripe, Pid exec,
                       Pid victim, std::uint32_t slot,
                       std::uint32_t instance) {
    RecoveryCell& c = recovery_[stripe];
    switch (kind) {
      case EventKind::kForcedExit: bump(c.forced_exits); break;
      case EventKind::kCompleteGrant: bump(c.complete_grants); break;
      case EventKind::kAbortOnBehalf: bump(c.aborts_on_behalf); break;
      case EventKind::kResignal: bump(c.resignals); break;
      case EventKind::kZombieRetire: bump(c.zombie_retires); break;
      case EventKind::kFaCompleted: bump(c.fa_completed); break;
      case EventKind::kFaCompensated: bump(c.fa_compensated); break;
      default:
        return;  // lifecycle kinds have their own hooks
    }
    emit(kind, stripe, exec, victim, slot, instance);
  }

  /// A restarted process resumed (or unwound) its own previous incarnation's
  /// passage via reattach_session. Not stripe-scoped.
  void on_reentry(Pid p) {
    emit(EventKind::kReentry, kNoStripe, p, p, kNoSlot, 0);
  }

  /// A retired zombie pid was reclaimed after a full-quiescence epoch.
  void on_zombie_reclaimed(Pid exec, Pid reclaimed) {
    emit(EventKind::kZombieReclaim, kNoStripe, exec, reclaimed, kNoSlot, 0);
  }

  /// Wall-clock duration of one recovery sweep (recover_dead pass).
  void record_sweep_ns(std::uint64_t ns) { record(sweep_hist_[0], ns); }

  // --- the ring's two halves --------------------------------------------

  /// An in-flight push: the slot is claimed (tag odd) but the payload is
  /// not yet published. Every push is publish(claim(), e); the halves are
  /// public so tests can stage a stalled writer between them.
  struct Claim {
    std::uint64_t seq = 0;
    bool active = false;
  };

  /// Take the next sequence number and mark its slot claimed (odd tag).
  Claim claim() {
    if (ring_capacity_ == 0) return {};
    const std::uint64_t seq =
        ring_head_->head.fetch_add(1, std::memory_order_relaxed);
    ring_[seq % ring_capacity_].tag.store(claim_tag(seq),
                                          std::memory_order_relaxed);
    return {seq, true};
  }

  /// Store the payload (`e.seq` and `e.writer_os_pid` are ignored) and
  /// publish it (even tag). Safe after the ring has wrapped past the claim:
  /// the stale even tag names the old sequence number, so ring_snapshot()
  /// skips the slot.
  void publish(const Claim& c, const Event& e) {
    if (!c.active) return;
    EventSlot& s = ring_[c.seq % ring_capacity_];
    s.meta.store(pack_meta(e), std::memory_order_relaxed);
    s.detail.store(pack_detail(e), std::memory_order_relaxed);
    s.ts.store(e.ts, std::memory_order_relaxed);
    s.writer.store(self_os_pid_, std::memory_order_relaxed);
    s.tag.store(publish_tag(c.seq), std::memory_order_release);
  }

  // --- readers (valid from any attached process, including read-only) ---

  struct Totals {
    std::uint64_t acquisitions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t spin_iterations = 0;
    std::uint64_t findnext_ascents = 0;
    std::uint64_t instance_switches = 0;
    std::uint64_t spin_node_recycles = 0;
  };

  Totals of(Pid p) const {
    const CounterCell& c = counters_[p];
    Totals t;
    t.acquisitions = c.acquisitions.load(std::memory_order_relaxed);
    t.aborts = c.aborts.load(std::memory_order_relaxed);
    t.spin_iterations = c.spin_iterations.load(std::memory_order_relaxed);
    t.findnext_ascents = c.findnext_ascents.load(std::memory_order_relaxed);
    t.instance_switches =
        c.instance_switches.load(std::memory_order_relaxed);
    t.spin_node_recycles =
        c.spin_node_recycles.load(std::memory_order_relaxed);
    return t;
  }

  Totals totals() const {
    Totals sum;
    for (Pid p = 0; p < nprocs_; ++p) {
      const Totals t = of(p);
      sum.acquisitions += t.acquisitions;
      sum.aborts += t.aborts;
      sum.spin_iterations += t.spin_iterations;
      sum.findnext_ascents += t.findnext_ascents;
      sum.instance_switches += t.instance_switches;
      sum.spin_node_recycles += t.spin_node_recycles;
    }
    return sum;
  }

  RecoverySnapshot recovery_stripe(std::uint32_t stripe) const {
    const RecoveryCell& c = recovery_[stripe];
    RecoverySnapshot s;
    s.forced_exits = c.forced_exits.load(std::memory_order_relaxed);
    s.complete_grants = c.complete_grants.load(std::memory_order_relaxed);
    s.aborts_on_behalf = c.aborts_on_behalf.load(std::memory_order_relaxed);
    s.resignals = c.resignals.load(std::memory_order_relaxed);
    s.zombie_retires = c.zombie_retires.load(std::memory_order_relaxed);
    s.fa_completed = c.fa_completed.load(std::memory_order_relaxed);
    s.fa_compensated = c.fa_compensated.load(std::memory_order_relaxed);
    return s;
  }

  RecoverySnapshot recovery_totals() const {
    RecoverySnapshot sum;
    for (std::uint32_t s = 0; s < stripes_; ++s) {
      const RecoverySnapshot r = recovery_stripe(s);
      sum.forced_exits += r.forced_exits;
      sum.complete_grants += r.complete_grants;
      sum.aborts_on_behalf += r.aborts_on_behalf;
      sum.resignals += r.resignals;
      sum.zombie_retires += r.zombie_retires;
      sum.fa_completed += r.fa_completed;
      sum.fa_compensated += r.fa_compensated;
    }
    return sum;
  }

  HistogramSnapshot handoff() const { return snapshot(handoff_hist_[0]); }
  HistogramSnapshot sweep_latency() const {
    return snapshot(sweep_hist_[0]);
  }

  /// Total events offered to the ring (including overwritten ones).
  std::uint64_t ring_total() const {
    return ring_head_->head.load(std::memory_order_relaxed);
  }

  /// Events lost to wraparound so far.
  std::uint64_t ring_dropped() const {
    const std::uint64_t total = ring_total();
    return total > ring_capacity_ ? total - ring_capacity_ : 0;
  }

  /// The retained, fully published events, oldest first. A slot whose tag
  /// does not match the expected published sequence (writer stalled mid-
  /// push, slot overwritten by a wrap, stale publish after a wrap) is
  /// skipped; `torn` (if given) receives how many were. Stable only once
  /// writers quiesce — while they run, a skipped slot is simply one that was
  /// in flight at the instant of the scan.
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    std::vector<Event> out;
    std::uint64_t skipped = 0;
    const std::uint64_t total = ring_total();
    if (ring_capacity_ != 0 && total != 0) {
      const std::uint64_t kept =
          total < ring_capacity_ ? total : ring_capacity_;
      out.reserve(kept);
      for (std::uint64_t seq = total - kept; seq < total; ++seq) {
        Event e;
        if (read_published(seq, &e)) {
          out.push_back(e);
        } else {
          ++skipped;
        }
      }
    }
    if (torn != nullptr) *torn = skipped;
    return out;
  }

 private:
  /// The one allocation sequence, shared by both placements.
  void place(ipc::ShmArena& arena) {
    counters_ = arena.alloc_array<CounterCell>(nprocs_);
    pending_handoff_ = arena.alloc_array<WordCell>(stripes_);
    recovery_ = arena.alloc_array<RecoveryCell>(stripes_);
    ring_head_ = arena.alloc_array<RingHeadCell>(1);
    ring_ = arena.alloc_array<EventSlot>(ring_capacity_);
    handoff_hist_ = arena.alloc_array<HistogramCell>(1);
    sweep_hist_ = arena.alloc_array<HistogramCell>(1);
  }

  /// Single-writer increment (see the file header).
  static void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n = 1) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  /// The placement's timestamp: a logical tick on the heap, CLOCK_MONOTONIC
  /// in a segment.
  std::uint64_t now() {
    if (heap_ != nullptr) {
      return ring_head_->clock.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return now_ns();
  }

  static std::uint64_t claim_tag(std::uint64_t seq) { return 2 * seq + 1; }
  static std::uint64_t publish_tag(std::uint64_t seq) { return 2 * seq + 2; }

  /// meta: kind(8) | stripe(16) | pid(16) | victim(16); low 8 reserved.
  static std::uint64_t pack_meta(const Event& e) {
    return (static_cast<std::uint64_t>(e.kind) << 56) |
           (static_cast<std::uint64_t>(e.stripe & 0xFFFFu) << 40) |
           (static_cast<std::uint64_t>(e.pid & 0xFFFFu) << 24) |
           (static_cast<std::uint64_t>(e.victim & 0xFFFFu) << 8);
  }

  static std::uint64_t pack_detail(const Event& e) {
    return (static_cast<std::uint64_t>(e.slot) << 32) |
           static_cast<std::uint64_t>(e.instance);
  }

  void emit(EventKind kind, std::uint32_t stripe, Pid pid, Pid victim,
            std::uint32_t slot, std::uint32_t instance) {
    if (ring_capacity_ == 0) return;
    emit_at(kind, stripe, pid, victim, slot, instance, now());
  }

  void emit_at(EventKind kind, std::uint32_t stripe, Pid pid, Pid victim,
               std::uint32_t slot, std::uint32_t instance, std::uint64_t t) {
    publish(claim(), Event{.kind = kind,
                           .stripe = stripe,
                           .pid = pid,
                           .victim = victim,
                           .slot = slot,
                           .instance = instance,
                           .ts = t});
  }

  bool read_published(std::uint64_t seq, Event* out) const {
    const EventSlot& s = ring_[seq % ring_capacity_];
    const std::uint64_t want = publish_tag(seq);
    if (s.tag.load(std::memory_order_acquire) != want) return false;
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const std::uint64_t detail = s.detail.load(std::memory_order_relaxed);
    const std::uint64_t ts = s.ts.load(std::memory_order_relaxed);
    const std::uint64_t writer = s.writer.load(std::memory_order_relaxed);
    // Re-validate after the payload reads: a writer that claimed between
    // the two tag loads was mid-overwrite and the payload may mix
    // generations.
    if (s.tag.load(std::memory_order_acquire) != want) return false;
    out->kind = static_cast<EventKind>(meta >> 56);
    out->stripe = static_cast<std::uint32_t>((meta >> 40) & 0xFFFFu);
    out->pid = static_cast<Pid>((meta >> 24) & 0xFFFFu);
    out->victim = static_cast<Pid>((meta >> 8) & 0xFFFFu);
    out->slot = static_cast<std::uint32_t>(detail >> 32);
    out->instance = static_cast<std::uint32_t>(detail);
    out->seq = seq;
    out->ts = ts;
    out->writer_os_pid = writer;
    return true;
  }

  static void record(HistogramCell& h, std::uint64_t v) {
    h.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(v, std::memory_order_relaxed);
  }

  static HistogramSnapshot snapshot(const HistogramCell& h) {
    HistogramSnapshot s;
    std::uint64_t buckets[kHistogramBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] = h.buckets[i].load(std::memory_order_relaxed);
      total += buckets[i];
    }
    // Percentiles over the buckets actually read (the count word can be
    // momentarily ahead of the bucket stores under concurrent writers).
    s.count = total;
    s.sum = h.sum.load(std::memory_order_relaxed);
    if (total == 0) return s;
    s.mean = static_cast<double>(s.sum) / static_cast<double>(total);
    s.p50 = percentile(buckets, total, 0.50);
    s.p90 = percentile(buckets, total, 0.90);
    s.p99 = percentile(buckets, total, 0.99);
    return s;
  }

  /// Nearest rank over bucket upper bounds: the smallest bucket whose
  /// cumulative count reaches ceil(q * total).
  static std::uint64_t percentile(
      const std::uint64_t (&buckets)[kHistogramBuckets], std::uint64_t total,
      double q) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.9999999);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return bucket_upper(i);
    }
    return bucket_upper(kHistogramBuckets - 1);
  }

  std::unique_ptr<ipc::ShmArena> heap_;  ///< the heap block; null in a segment
  Pid nprocs_;
  std::uint32_t stripes_;
  std::uint32_t ring_capacity_;
  CounterCell* counters_ = nullptr;
  WordCell* pending_handoff_ = nullptr;
  RecoveryCell* recovery_ = nullptr;
  RingHeadCell* ring_head_ = nullptr;
  EventSlot* ring_ = nullptr;
  HistogramCell* handoff_hist_ = nullptr;
  HistogramCell* sweep_hist_ = nullptr;
  std::uint64_t self_os_pid_ = static_cast<std::uint64_t>(::getpid());
};

/// What the lock templates actually hold: a bound-or-null pointer for an
/// enabled sink plus the (stripe, instance) address the lock emits under,
/// or an empty no-op shim for NullMetrics.
template <typename Sink>
class SinkHandle {
 public:
  using sink_type = Sink;

  void bind(Sink* sink, std::uint32_t stripe = 0,
            std::uint32_t instance = 0) {
    sink_ = sink;
    stripe_ = stripe;
    instance_ = instance;
  }
  Sink* get() const { return sink_; }

  void on_enter(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_enter(stripe_, p, slot, instance_);
  }
  void on_granted(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_granted(stripe_, p, slot, instance_);
  }
  void on_abort(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_abort(stripe_, p, slot, instance_);
  }
  void on_exit(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_exit(stripe_, p, slot, instance_);
  }
  void on_switch(Pid p, std::uint32_t installed) {
    if (sink_ != nullptr) sink_->on_switch(stripe_, p, installed);
  }
  void on_spin_iteration(Pid p) {
    if (sink_ != nullptr) sink_->on_spin_iteration(p);
  }
  void on_findnext(Pid p) {
    if (sink_ != nullptr) sink_->on_findnext(p);
  }
  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    if (sink_ != nullptr) sink_->on_spin_node_recycle(p, nodes);
  }

 private:
  Sink* sink_ = nullptr;
  std::uint32_t stripe_ = 0;
  std::uint32_t instance_ = 0;
};

/// Disabled specialization: empty, all hooks static no-ops. With
/// [[no_unique_address]] this adds zero bytes and zero instructions.
template <>
class SinkHandle<NullMetrics> {
 public:
  using sink_type = NullMetrics;

  static void bind(NullMetrics*, std::uint32_t = 0, std::uint32_t = 0) {}
  static NullMetrics* get() { return nullptr; }
  static void on_enter(Pid, std::uint32_t) {}
  static void on_granted(Pid, std::uint32_t) {}
  static void on_abort(Pid, std::uint32_t) {}
  static void on_exit(Pid, std::uint32_t) {}
  static void on_switch(Pid, std::uint32_t) {}
  static void on_spin_iteration(Pid) {}
  static void on_findnext(Pid) {}
  static void on_spin_node_recycle(Pid, std::uint64_t) {}
};

/// True when instrumenting with `Sink` costs nothing: the handle stores no
/// state, so the optimizer erases every hook call. The deployment header
/// static_asserts this for the default NullMetrics configuration.
template <typename Sink>
inline constexpr bool kZeroCostSink = std::is_empty_v<SinkHandle<Sink>>;

static_assert(kZeroCostSink<NullMetrics>,
              "the disabled metrics sink must compile to nothing");
static_assert(!kZeroCostSink<Metrics>, "the enabled sink carries state");

}  // namespace aml::obs
