// LockTable: a sharded named-lock service built from the paper's long-lived
// abortable lock — and, per stripe, optionally from the Jayanti & Jayanti
// constant-amortized-RMR lock instead (see "Algorithm-polymorphic stripes").
//
// Keys (64-bit ids or strings) hash onto S cache-independent *stripes*; each
// stripe owns one LongLivedLock (Section 6 transformation over the Section 3
// one-shot lock) together with that lock's spin-node pool and one-shot
// instance pool. Acquiring a key acquires its stripe's lock, so two keys
// conflict iff they collide on a stripe — the classic lock-manager striping
// trade: S bounds memory (O(S * N * s(N)) words) while abortability bounds
// the damage of a collision (a deadline or deadlock-avoidance signal gets a
// waiter out in a bounded number of its own steps).
//
// The table is templated over the memory model like every algorithm here, so
// the same code runs on native hardware (aml/table/named_table.hpp wraps it
// into the deployable service) and on the counting models under the
// deterministic scheduler — which is how the table's claims are tested: the
// per-passage RMR of a key acquisition inherits the lock's adaptive bound,
// independent of how many threads are registered (bench_table_zipf), and
// mutual exclusion holds across a resize epoch transition
// (lock_table_resize_test, bench_table_resize).
//
// == Adaptive stripe resizing (epoch generations) ==
//
// The paper's headline is *adaptive* cost — RMRs that track actual
// contention — so the service layer adapts the same way: the stripe array
// can grow at runtime without stopping the world. resize(S') installs a new
// *generation* (stripe array + mask + per-stripe stats); the old generation
// drains and retires:
//
//   * every key passage pins the current generation for its whole
//     enter..exit lifetime, and acquires stripes through that generation's
//     mask — so a key never changes stripe mid-hold. A generation's pins are
//     one padded cell per dense id, each written only by its id (a count:
//     an id may hold several keys), so pinning writes no line another
//     thread writes; the pin count is the sum of the cells;
//   * while the previous generation has live pins (passages that started
//     before the switch), a new-generation passage *bridges*: it acquires
//     the key's old-generation stripe first, then its new-generation stripe.
//     Old passages hold only old stripes, new passages hold both, so any two
//     overlapping passages on one key share a stripe lock — mutual exclusion
//     holds across the transition. The bridge orders old stripes strictly
//     before new stripes (each set ascending), a global total order, so
//     multi-key acquisition stays deadlock-free during a drain;
//   * when the old generation's pin count hits zero it is *retired*:
//     bridging stops, and passages cost exactly one stripe lock again.
//     Retirement uses seq_cst on the pin cells and the current-generation
//     pointer (a Dekker-style publication: pinners store-then-recheck, the
//     resizer publishes-then-scans) so a passage active on the old
//     generation can never be missed. An unpin that empties its cell on a
//     superseded generation scans all N cells and retires the generation
//     if none is pinned; the scan runs only during a drain.
//
// resize() is non-blocking and grow-only: it returns false when another
// resize is in flight, when the previous drain has not finished, or when the
// target is not larger than the current stripe count. Old stripe arrays are
// kept until table destruction (the counting models cannot free words
// anyway), so readers never race reclamation; memory is bounded by 2x the
// final stripe count.
//
// == Contention stats ==
//
// Every generation carries a cheap always-on StripeStats block per stripe:
// attempts in flight (queue-depth proxy), a high-water mark of that depth,
// and acquisition/abort totals. These are plain cache-padded atomics —
// no model words, so they cost no RMRs and do not perturb the deterministic
// benches. maybe_grow() turns them into an auto-grow policy: when any
// current-generation stripe has seen `inflight_threshold` concurrent
// attempts, double the stripe count (up to `max_stripes`). Full latency
// histograms stay in the table's optional obs::Metrics sink, which every
// generation's stripe s reports into under stripe address s.
//
// Stats are per generation: inflight/max_inflight start at zero in every new
// generation, so a high-water mark earned *before* a grow can never re-fire
// GrowPolicy right after it and double the table to max_stripes in one storm
// (each further grow must be provoked by fresh contention on the new, wider
// array). Acquisition/abort *rates*, by contrast, stay meaningful across a
// grow: each new stripe is seeded with its parent stripe's totals divided by
// the grow fan-out (a parent splits into nstripes/prev_count children, so the
// children's inherited history sums back to the parent's), exposed as
// StripeStatsView::inherited_* and folded into HybridPolicy decisions so a
// freshly split stripe keeps its contention history until it earns its own.
//
// == Algorithm-polymorphic stripes (HybridPolicy) ==
//
// Each stripe lock is chosen per stripe at generation build time between two
// algorithms with complementary cost signatures:
//
//   * StripeAlgo::kPaper — the paper's long-lived lock: worst-case adaptive
//     O(log_W A) RMR per passage, robust under abort storms;
//   * StripeAlgo::kAmortized — the Jayanti & Jayanti queue lock
//     (baselines/jayanti.hpp): O(1) *amortized* RMR, cheaper on steady
//     workloads, but a single passage can pay for a run of concurrent
//     aborts.
//
// Config::algo picks the uniform default. When Config::hybrid.enabled, each
// resize() re-chooses per stripe from the parent stripe's observed abort
// rate (live totals + inherited seed): rate >= abort_rate_threshold selects
// the paper lock, below it the amortized lock; stripes whose parents lack
// min_samples attempts inherit the parent's algorithm unchanged. The drain's
// dual-acquire bridging is algorithm-agnostic — an overlapping passage holds
// the old stripe's lock whichever algorithm either generation uses — so
// mutual exclusion is preserved across an algorithm switch (covered by the
// table_hybrid_resize_bridge DPOR workload).
//
// Multi-key acquisition (enter_hashes) sorts the distinct stripe indices and
// acquires ascending, the standard total-order discipline that makes
// deadlock impossible among multi-key callers; the abort signal still bounds
// the wait against single-key holders, and on abort every stripe taken so
// far is released in reverse order before returning, so the attempt is
// all-or-nothing.
//
// Threading contract: a thread uses a dense id from [0, max_threads)
// (ThreadRegistry leases them) and must not re-enter a stripe it already
// holds (the underlying lock is not reentrant); enter_hashes deduplicates
// colliding keys within one call, so only *nested* separate calls can
// self-collide. Every operation (enter/exit, enter_hashes/exit_hashes) is
// safe concurrent with resize().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "aml/baselines/jayanti.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"
#include "aml/table/hash.hpp"

namespace aml::table {

using model::Pid;

/// Hard cap on stripe counts (construction and resize): 2^20 stripes is far
/// beyond any sane shard factor and keeps round_up_pow2 comfortably inside
/// its domain.
inline constexpr std::uint32_t kMaxStripes = std::uint32_t{1} << 20;

/// Per-stripe lock algorithm (see "Algorithm-polymorphic stripes" above).
enum class StripeAlgo : std::uint8_t {
  kPaper,      ///< paper long-lived lock: worst-case adaptive O(log_W A)
  kAmortized,  ///< Jayanti & Jayanti queue lock: O(1) amortized RMR
};

/// Per-stripe algorithm re-choice policy, evaluated at every resize() the
/// same way GrowPolicy is evaluated by maybe_grow(). Disabled by default:
/// every stripe then inherits its parent's (ultimately Config::algo's)
/// algorithm.
struct HybridPolicy {
  bool enabled = false;
  /// Parent abort rate at/above which a new stripe gets the paper lock
  /// (abort storms dominate); below it the amortized lock (steady traffic).
  double abort_rate_threshold = 0.125;
  /// Parent attempts (live + inherited) required to trust its rate; thin
  /// parents pass their algorithm through unchanged.
  std::uint64_t min_samples = 16;
};

/// A stripe lock that is one of the two algorithms, chosen at construction.
/// Presents the long-lived lock interface the table expects; the amortized
/// lock's bool protocol is adapted to EnterResult with slot 0, and its
/// grant/abort metrics are forwarded at this layer since the baseline itself
/// is metrics-free. `sink` (may be null) is bound under stripe address
/// `stripe` before the lock is published.
template <typename M, typename Metrics = obs::NullMetrics>
class PolyStripeLock {
 public:
  using PaperLock =
      core::LongLivedLock<M, core::VersionedSpace, core::OneShotLock, Metrics>;
  using AmortizedLock = baselines::JayantiAbortableLock<M>;
  using Config = typename PaperLock::Config;

  PolyStripeLock(M& mem, Config config, StripeAlgo algo, Metrics* sink,
                 std::uint32_t stripe)
      : algo_(algo) {
    if (algo == StripeAlgo::kPaper) {
      paper_ = std::make_unique<PaperLock>(mem, config);
      paper_->set_metrics(sink, stripe);
    } else {
      amortized_ = std::make_unique<AmortizedLock>(mem, config.nprocs);
      sink_.bind(sink, stripe);
    }
  }

  StripeAlgo algo() const { return algo_; }

  core::EnterResult enter(Pid self, const std::atomic<bool>* signal) {
    if (paper_ != nullptr) return paper_->enter(self, signal);
    sink_.on_enter(self, 0);
    core::EnterResult result;
    result.acquired = amortized_->enter(self, signal);
    result.slot = 0;
    if (result.acquired) {
      sink_.on_granted(self, result.slot);
    } else {
      sink_.on_abort(self, result.slot);
    }
    return result;
  }

  void exit(Pid self) {
    if (paper_ != nullptr) {
      paper_->exit(self);
    } else {
      sink_.on_exit(self, 0);
      amortized_->exit(self);
    }
  }

  /// Introspection: non-null exactly for the matching algo().
  PaperLock* paper() { return paper_.get(); }
  AmortizedLock* amortized() { return amortized_.get(); }

 private:
  StripeAlgo algo_;
  std::unique_ptr<PaperLock> paper_;
  std::unique_ptr<AmortizedLock> amortized_;
  [[no_unique_address]] obs::SinkHandle<Metrics> sink_;  ///< amortized path
};

template <typename M, typename Metrics = obs::NullMetrics>
class LockTable {
 public:
  using StripeLock = PolyStripeLock<M, Metrics>;
  using PaperStripeLock = typename StripeLock::PaperLock;
  using MetricsSink = Metrics;

  struct Config {
    Pid max_threads = 16;     ///< N: dense thread ids the table accepts
    std::uint32_t stripes = 16;  ///< S: rounded up to a power of two
    std::uint32_t tree_width = 64;  ///< W of each stripe's tree
    core::Find find = core::Find::kAdaptive;
    StripeAlgo algo = StripeAlgo::kPaper;  ///< uniform default algorithm
    HybridPolicy hybrid{};  ///< per-stripe re-choice on resize
  };

  /// Always-on per-stripe contention snapshot (see stripe_stats()).
  struct StripeStatsView {
    std::uint64_t acquisitions = 0;  ///< granted passages through the stripe
    std::uint64_t aborts = 0;        ///< attempts abandoned via the signal
    std::uint32_t inflight = 0;      ///< attempts running right now
    std::uint32_t max_inflight = 0;  ///< high-water mark of `inflight`
    std::uint64_t inherited_attempts = 0;  ///< parent-seeded attempt history
    std::uint64_t inherited_aborts = 0;    ///< parent-seeded abort history
  };

  /// Auto-grow policy evaluated by maybe_grow().
  struct GrowPolicy {
    std::uint32_t inflight_threshold = 4;  ///< stripe depth that flags "hot"
    std::uint32_t max_stripes = 1024;      ///< never grow beyond this
  };

  /// `metrics` (optional; ignored for NullMetrics) is the table's one sink:
  /// stripe s of every generation reports into it under stripe address s,
  /// bound before the generation is published. It must have a stripe cell
  /// for every stripe the table will reach (resize() refuses to outgrow it).
  LockTable(M& mem, Config config, Metrics* metrics = nullptr)
      : mem_(mem), config_(config), metrics_(metrics) {
    AML_ASSERT(config.max_threads >= 1, "table needs at least one thread id");
    AML_ASSERT(config.stripes >= 1 && config.stripes <= kMaxStripes,
               "Config::stripes out of [1, kMaxStripes]");
    AML_ASSERT(fits_sink(round_up_pow2(config.stripes)),
               "metrics sink has fewer stripe cells than Config::stripes");
    locals_ = std::vector<pal::CachePadded<PidLocal>>(config.max_threads);
    gens_.push_back(make_generation(round_up_pow2(config.stripes), 0,
                                    /*prev=*/nullptr));
    current_.store(gens_.back().get(),  // AML_V_EDGE(table.gen_publish)
                   std::memory_order_release);
  }

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // --- key -> stripe map ---------------------------------------------------

  static constexpr std::uint64_t hash_of(std::uint64_t key) {
    return key_hash(key);
  }
  static constexpr std::uint64_t hash_of(std::string_view key) {
    return key_hash(key);
  }

  std::uint32_t stripe_count() const { return cur().mask + 1; }
  Pid max_threads() const { return config_.max_threads; }

  /// Current-generation epoch (0 at construction, +1 per resize).
  std::uint64_t epoch() const { return cur().epoch; }

  /// True while the previous generation still has pinned passages (new
  /// acquisitions bridge both generations' stripes).
  bool draining() const {
    const Generation& g = cur();
    return g.prev != nullptr &&
           !g.prev->retired.load(std::memory_order_seq_cst);
  }

  std::uint32_t stripe_of(std::uint64_t key) const {
    return static_cast<std::uint32_t>(key_hash(key)) & cur().mask;
  }
  std::uint32_t stripe_of(std::string_view key) const {
    return static_cast<std::uint32_t>(key_hash(key)) & cur().mask;
  }

  /// Direct access to a current-generation stripe's lock (introspection /
  /// tests; not stable across resize).
  StripeLock& stripe(std::uint32_t s) { return *cur_mut().stripes[s]; }

  /// Algorithm of current-generation stripe `s` (not stable across resize).
  StripeAlgo stripe_algo(std::uint32_t s) const {
    return cur().stripes[s]->algo();
  }

  // --- single-key operations (resize-safe) ---------------------------------

  /// Acquire the stripe guarding `key`. Returns false iff `signal` was
  /// observed while waiting (bounded abort); with a null signal it blocks
  /// until acquired (starvation-free). Safe concurrent with resize(): the
  /// passage pins its generation, and during a drain it bridges the old
  /// generation's stripe (see header comment).
  template <typename Key>
  bool enter(Pid self, Key key, const std::atomic<bool>* signal = nullptr) {
    return enter_hash(self, key_hash(key), signal);
  }

  /// Release the stripe(s) guarding `key`. Caller must hold it.
  template <typename Key>
  void exit(Pid self, Key key) {
    exit_hash(self, key_hash(key));
  }

  bool enter_hash(Pid self, std::uint64_t hash,
                  const std::atomic<bool>* signal = nullptr) {
    Generation* gen = pin(self);
    Generation* old_gen = bridge_target(*gen);
    const std::uint32_t s_new = static_cast<std::uint32_t>(hash) & gen->mask;
    std::uint32_t s_old = 0;
    if (old_gen != nullptr) {
      s_old = static_cast<std::uint32_t>(hash) & old_gen->mask;
      if (!acquire_gen_stripe(*old_gen, self, s_old, signal)) {
        unpin(self, gen);
        return false;
      }
    }
    if (!acquire_gen_stripe(*gen, self, s_new, signal)) {
      if (old_gen != nullptr) old_gen->stripes[s_old]->exit(self);
      unpin(self, gen);
      return false;
    }
    locals_[self]->singles.push_back(
        SingleHold{hash, gen, old_gen, s_new, s_old});
    return true;
  }

  void exit_hash(Pid self, std::uint64_t hash) {
    auto& singles = locals_[self]->singles;
    for (std::size_t i = singles.size(); i-- > 0;) {
      if (singles[i].hash != hash) continue;
      const SingleHold hold = singles[i];
      singles.erase(singles.begin() + static_cast<std::ptrdiff_t>(i));
      hold.gen->stripes[hold.s_new]->exit(self);
      if (hold.old_gen != nullptr) hold.old_gen->stripes[hold.s_old]->exit(self);
      unpin(self, hold.gen);
      return;
    }
    AML_ASSERT(false, "exit_hash: key is not held by this thread");
  }

  // --- multi-key ordered acquisition (resize-safe) --------------------------

  /// Sorted, deduplicated key hashes — the identity enter_hashes/exit_hashes
  /// operate on (stable across resize, unlike stripe indices).
  template <typename Key>
  std::vector<std::uint64_t> plan_hashes(const std::vector<Key>& keys) const {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(keys.size());
    for (const Key& key : keys) hashes.push_back(key_hash(key));
    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
    return hashes;
  }

  /// All-or-nothing acquisition of every key in `hashes` (sorted, distinct —
  /// what plan_hashes() produces). Stripes are taken in a global total order
  /// (old generation ascending, then current generation ascending), so
  /// enter_hashes callers cannot deadlock each other even mid-drain. If the
  /// signal aborts any acquisition, the stripes already held are released in
  /// reverse order and the call returns false.
  bool enter_hashes(Pid self, const std::vector<std::uint64_t>& hashes,
                    const std::atomic<bool>* signal = nullptr) {
    AML_DASSERT(std::is_sorted(hashes.begin(), hashes.end()) &&
                    std::adjacent_find(hashes.begin(), hashes.end()) ==
                        hashes.end(),
                "enter_hashes input must be sorted and distinct "
                "(use plan_hashes())");
    Generation* gen = pin(self);
    Generation* old_gen = bridge_target(*gen);
    MultiHold hold;
    hold.hashes = hashes;
    hold.gen = gen;
    hold.old_gen = old_gen;
    hold.order_new = stripe_order(hashes, gen->mask);
    if (old_gen != nullptr) {
      hold.order_old = stripe_order(hashes, old_gen->mask);
    }
    for (std::size_t i = 0; i < hold.order_old.size(); ++i) {
      if (!acquire_gen_stripe(*old_gen, self, hold.order_old[i], signal)) {
        while (i-- > 0) old_gen->stripes[hold.order_old[i]]->exit(self);
        unpin(self, gen);
        return false;
      }
    }
    for (std::size_t i = 0; i < hold.order_new.size(); ++i) {
      if (!acquire_gen_stripe(*gen, self, hold.order_new[i], signal)) {
        while (i-- > 0) gen->stripes[hold.order_new[i]]->exit(self);
        for (std::size_t j = hold.order_old.size(); j-- > 0;) {
          old_gen->stripes[hold.order_old[j]]->exit(self);
        }
        unpin(self, gen);
        return false;
      }
    }
    locals_[self]->multis.push_back(std::move(hold));
    return true;
  }

  /// Release a set acquired by enter_hashes (same sorted distinct hashes).
  void exit_hashes(Pid self, const std::vector<std::uint64_t>& hashes) {
    auto& multis = locals_[self]->multis;
    for (std::size_t i = multis.size(); i-- > 0;) {
      if (multis[i].hashes != hashes) continue;
      MultiHold hold = std::move(multis[i]);
      multis.erase(multis.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = hold.order_new.size(); j-- > 0;) {
        hold.gen->stripes[hold.order_new[j]]->exit(self);
      }
      for (std::size_t j = hold.order_old.size(); j-- > 0;) {
        hold.old_gen->stripes[hold.order_old[j]]->exit(self);
      }
      unpin(self, hold.gen);
      return;
    }
    AML_ASSERT(false, "exit_hashes: key set is not held by this thread");
  }

  // --- resizing ------------------------------------------------------------

  /// Grow the stripe array to round_up_pow2(new_stripes). Non-blocking and
  /// grow-only: returns false (and does nothing) when another resize is in
  /// flight, the previous generation is still draining, or the target is not
  /// larger than the current count (or than the metrics sink's stripe
  /// cells). On success the new generation is visible to every subsequent
  /// acquisition; passages already running drain against the old array (see
  /// header comment).
  bool resize(std::uint32_t new_stripes) {
    AML_ASSERT(new_stripes >= 1 && new_stripes <= kMaxStripes,
               "resize target out of [1, kMaxStripes]");
    const std::uint32_t target = round_up_pow2(new_stripes);
    // Winning the exchange acquires the previous resizer's release below,
    // so generation bookkeeping (gens_, seed stats) is owned exclusively.
    if (resizing_.exchange(true, std::memory_order_acq_rel)) {  // AML_X_EDGE(table.resize_guard)
      return false;
    }
    Generation* old_gen = current_.load(std::memory_order_seq_cst);
    if (target <= old_gen->mask + 1 || !fits_sink(target) ||
        (old_gen->prev != nullptr &&
         !old_gen->prev->retired.load(std::memory_order_seq_cst))) {
      resizing_.store(false, std::memory_order_release);  // AML_V_EDGE(table.resize_guard)
      return false;
    }
    gens_.push_back(make_generation(target, old_gen->epoch + 1, old_gen));
    Generation* next = gens_.back().get();
    // seq_cst required (Dekker with pin()'s increment-then-recheck), and
    // also the release side of the generation publication.
    current_.store(next, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_publish)
    // If no passage is pinned to the old generation, retire it right here —
    // no unpin will ever fire for it again. (Dekker pairing with pin(): the
    // seq_cst store above precedes this scan, so a passage that saw the old
    // pointer has its cell store visible here.)
    maybe_retire(old_gen);
    resizing_.store(false, std::memory_order_release);  // AML_V_EDGE(table.resize_guard)
    return true;
  }

  /// Evaluate the auto-grow policy against the current generation's stats:
  /// when any stripe's attempt-depth high-water mark reaches
  /// `policy.inflight_threshold`, double the stripe count (capped at
  /// `policy.max_stripes`). Returns true iff a resize happened.
  bool maybe_grow(const GrowPolicy& policy) {
    const Generation& g = cur();
    const std::uint32_t count = g.mask + 1;
    if (count * 2 > policy.max_stripes) return false;
    bool hot = false;
    for (std::uint32_t s = 0; s < count && !hot; ++s) {
      hot = g.stats[s]->max_inflight.load(std::memory_order_relaxed) >=  // AML_RELAXED(stats high-water probe)
            policy.inflight_threshold;
    }
    if (!hot) return false;
    return resize(count * 2);
  }

  // --- per-stripe observability --------------------------------------------

  /// Always-on contention counters of current-generation stripe `s`. The
  /// snapshot is only consistent once writers quiesce, like every relaxed
  /// counter block; `inflight` is exact at the instant of each load.
  StripeStatsView stripe_stats(std::uint32_t s) const {
    const StripeStats& st = *cur().stats[s];
    StripeStatsView view;
    view.acquisitions = st.acquisitions.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.aborts = st.aborts.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.inflight = st.inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.max_inflight = st.max_inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.inherited_attempts = st.seed_attempts;
    view.inherited_aborts = st.seed_aborts;
    return view;
  }

  /// Largest attempt-depth high-water mark across current-generation stripes
  /// (the scalar the auto-grow policy keys on).
  std::uint32_t peak_inflight() const {
    const Generation& g = cur();
    std::uint32_t peak = 0;
    for (std::uint32_t s = 0; s <= g.mask; ++s) {
      peak = std::max(
          peak,
          g.stats[s]->max_inflight.load(std::memory_order_relaxed));  // AML_RELAXED(stats high-water probe)
    }
    return peak;
  }

  // --- analysis introspection ----------------------------------------------

  /// Snapshot of one stripe-array generation for the invariant oracles in
  /// aml/analysis/oracles.hpp.
  struct GenerationView {
    std::uint64_t epoch = 0;
    std::uint32_t stripe_count = 0;
    std::uint64_t pins = 0;
    bool retired = false;
    bool is_current = false;
  };

  /// All generations ever created, oldest first. Generations are never freed
  /// before the table, and `gens_` only grows inside resize(), which on a
  /// scheduled model runs entirely within one granted step window — so the
  /// snapshot is consistent whenever every worker is parked (the only time
  /// oracle probes run). Not meaningful under free-running native threads.
  std::vector<GenerationView> debug_generations() const {
    std::vector<GenerationView> out;
    const Generation* current = current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
    out.reserve(gens_.size());
    for (const auto& g : gens_) {
      GenerationView v;
      v.epoch = g->epoch;
      v.stripe_count = g->mask + 1;
      for (const auto& cell : g->pins) {
        v.pins += cell->load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_quiesce)
      }
      v.retired = g->retired.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_quiesce)
      v.is_current = (g.get() == current);
      out.push_back(v);
    }
    return out;
  }

  /// Test-only: bias generation `gen_idx`'s pin count (the sum of its cells;
  /// the bias goes to id 0's cell) to manufacture an illegal state (e.g. a
  /// retired generation with pinned passages) so oracle fire-tests can
  /// observe a violation. Never call outside tests.
  void debug_corrupt_pins(std::size_t gen_idx, std::uint64_t delta) {
    gens_[gen_idx]->pins[0]->fetch_add(delta, std::memory_order_seq_cst);
  }

  /// Test-only: force generation `gen_idx`'s retired flag. See
  /// debug_corrupt_pins.
  void debug_force_retired(std::size_t gen_idx, bool retired) {
    gens_[gen_idx]->retired.store(retired, std::memory_order_seq_cst);
  }

 private:
  /// Always-on per-stripe counters (plain atomics: no model words, no RMRs).
  /// The seed_* fields are the parent stripe's halved totals, written once at
  /// generation build (before publication, hence plain) — rate history for
  /// HybridPolicy, deliberately NOT counted by GrowPolicy (see "Contention
  /// stats" in the header comment).
  struct StripeStats {
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint32_t> max_inflight{0};
    std::uint64_t seed_attempts = 0;
    std::uint64_t seed_aborts = 0;
  };

  /// One stripe-array epoch. Old generations are kept (never freed before
  /// the table) so passages draining against them never race reclamation.
  struct Generation {
    std::uint32_t mask = 0;
    std::uint64_t epoch = 0;
    Generation* prev = nullptr;  ///< the generation this one superseded
    std::vector<std::unique_ptr<StripeLock>> stripes;
    std::vector<pal::CachePadded<StripeStats>> stats;
    /// Passages in flight on this generation, one single-writer cell per
    /// dense id (see pin()).
    std::vector<pal::CachePadded<std::atomic<std::uint64_t>>> pins;
    std::atomic<bool> retired{false};     ///< fully drained; bridging over
  };

  struct SingleHold {
    std::uint64_t hash;
    Generation* gen;
    Generation* old_gen;  ///< non-null when the passage bridged the drain
    std::uint32_t s_new;
    std::uint32_t s_old;
  };

  struct MultiHold {
    std::vector<std::uint64_t> hashes;  ///< sorted distinct; exit identity
    Generation* gen = nullptr;
    Generation* old_gen = nullptr;
    std::vector<std::uint32_t> order_new;  ///< acquired stripes, ascending
    std::vector<std::uint32_t> order_old;  ///< empty when not bridged
  };

  /// Per-thread hold records (touched only by the owning dense id).
  struct PidLocal {
    std::vector<SingleHold> singles;
    std::vector<MultiHold> multis;
  };

  const Generation& cur() const {
    return *current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
  }
  Generation& cur_mut() {
    return *current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
  }

  /// Algorithm for a new stripe: the uniform default at construction;
  /// across a resize, the parent's algorithm, re-chosen from the parent's
  /// abort rate when HybridPolicy is enabled and the parent has enough
  /// samples (live + inherited) to trust it.
  StripeAlgo choose_algo(std::uint32_t s, Generation* prev) const {
    if (prev == nullptr) return config_.algo;
    const std::uint32_t parent = s & prev->mask;
    StripeAlgo algo = prev->stripes[parent]->algo();
    if (!config_.hybrid.enabled) return algo;
    const StripeStats& pst = *prev->stats[parent];
    const std::uint64_t live_aborts =
        pst.aborts.load(std::memory_order_relaxed);  // AML_RELAXED(stats; resize guard owns the epoch)
    const std::uint64_t aborts = live_aborts + pst.seed_aborts;
    const std::uint64_t attempts =
        pst.acquisitions.load(std::memory_order_relaxed) +  // AML_RELAXED(stats; resize guard owns the epoch)
        live_aborts + pst.seed_attempts;
    // attempts == 0 must inherit even when min_samples == 0: 0/0 is NaN and
    // every NaN comparison is false, which would silently pick kAmortized.
    if (attempts == 0 || attempts < config_.hybrid.min_samples) return algo;
    const double rate =
        static_cast<double>(aborts) / static_cast<double>(attempts);
    return rate >= config_.hybrid.abort_rate_threshold ? StripeAlgo::kPaper
                                                       : StripeAlgo::kAmortized;
  }

  /// True when the bound sink has a stripe cell for each of `nstripes`.
  bool fits_sink(std::uint32_t nstripes) const {
    if constexpr (Metrics::kEnabled) {
      return metrics_ == nullptr || nstripes <= metrics_->stripes();
    } else {
      return true;
    }
  }

  std::unique_ptr<Generation> make_generation(
      std::uint32_t nstripes, std::uint64_t epoch, Generation* prev) {
    auto gen = std::make_unique<Generation>();
    gen->mask = nstripes - 1;
    gen->epoch = epoch;
    gen->prev = prev;
    gen->stripes.reserve(nstripes);
    gen->stats = std::vector<pal::CachePadded<StripeStats>>(nstripes);
    gen->pins = std::vector<pal::CachePadded<std::atomic<std::uint64_t>>>(
        config_.max_threads);
    // Resize is grow-only over powers of two, so every parent stripe splits
    // into exactly `fanout` children; dividing the carried-over totals by it
    // keeps the children's inherited history summing to the parent's (a
    // constant /2 would double-count on a >2x jump).
    const std::uint64_t fanout =
        prev != nullptr ? nstripes / (prev->mask + std::uint64_t{1}) : 1;
    for (std::uint32_t s = 0; s < nstripes; ++s) {
      gen->stripes.push_back(std::make_unique<StripeLock>(
          mem_,
          typename StripeLock::Config{.nprocs = config_.max_threads,
                                      .w = config_.tree_width,
                                      .find = config_.find},
          choose_algo(s, prev), metrics_, s));
      if (prev != nullptr) {
        // Rate history carries over (split evenly across the parent's
        // children); depth high-water marks deliberately do not — every
        // further grow must be provoked by fresh contention.
        const StripeStats& pst = *prev->stats[s & prev->mask];
        StripeStats& st = *gen->stats[s];
        const std::uint64_t pacq =
            pst.acquisitions.load(std::memory_order_relaxed);  // AML_RELAXED(stats; resize guard owns the epoch)
        const std::uint64_t pab =
            pst.aborts.load(std::memory_order_relaxed);  // AML_RELAXED(stats; resize guard owns the epoch)
        st.seed_attempts = (pst.seed_attempts + pacq + pab) / fanout;
        st.seed_aborts = (pst.seed_aborts + pab) / fanout;
      }
    }
    return gen;
  }

  /// Pin the current generation for one passage. The store-then-recheck
  /// (all seq_cst) pairs with resize()'s publish-then-scan: either the
  /// pinner lands on the generation that is still current, or it retries on
  /// the new one — a stale pin is withdrawn before any stripe is touched.
  /// Only `self` writes its cell, so a load and a store replace the RMW.
  Generation* pin(Pid self) {
    for (;;) {
      Generation* g = current_.load(std::memory_order_seq_cst);
      std::atomic<std::uint64_t>& cell = *g->pins[self];
      cell.store(cell.load(std::memory_order_relaxed) + 1,  // AML_RELAXED(single-writer cell: reads self's own last store)
                 std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == g) return g;
      unpin(self, g);
    }
  }

  void unpin(Pid self, Generation* g) {
    std::atomic<std::uint64_t>& cell = *g->pins[self];
    const std::uint64_t left =
        cell.load(std::memory_order_relaxed) - 1;  // AML_RELAXED(single-writer cell: reads self's own last store)
    // seq_cst for the Dekker with resize(); also the release side the
    // quiescence scans acquire.
    cell.store(left, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_quiesce)
    if (left == 0) maybe_retire(g);
  }

  /// Retire `g` if it is superseded and drained: no cell pinned. Idempotent;
  /// racing callers can both store true. Of two ids emptying their cells
  /// concurrently, the later store in the seq_cst order precedes its own
  /// scan, which therefore sees both cells empty: the last unpin retires.
  void maybe_retire(Generation* g) {
    if (current_.load(std::memory_order_seq_cst) == g) return;
    for (const auto& cell : g->pins) {
      if (cell->load(std::memory_order_seq_cst) != 0) return;  // AML_X_EDGE(table.gen_quiesce)
    }
    g->retired.store(true, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_quiesce)
  }

  /// The generation a new passage on `gen` must bridge, or null when the
  /// predecessor has fully drained. A false-positive (prev retires just
  /// after the load) only costs one uncontended extra acquisition; a
  /// false-negative is impossible while any old passage is live (see
  /// maybe_retire's seq_cst pairing).
  Generation* bridge_target(Generation& gen) {
    Generation* prev = gen.prev;
    if (prev == nullptr || prev->retired.load(std::memory_order_seq_cst)) {
      return nullptr;
    }
    return prev;
  }

  /// One stripe acquisition with always-on stats: depth in/out, grant/abort
  /// totals, high-water mark.
  bool acquire_gen_stripe(Generation& gen, Pid self, std::uint32_t s,
                          const std::atomic<bool>* signal) {
    StripeStats& st = *gen.stats[s];
    const std::uint32_t depth =
        st.inflight.fetch_add(1, std::memory_order_relaxed) + 1;  // AML_RELAXED(stats counter)
    std::uint32_t seen =
        st.max_inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    while (seen < depth &&
           !st.max_inflight.compare_exchange_weak(  // AML_RELAXED(stats high-water CAS)
               seen, depth, std::memory_order_relaxed)) {
    }
    const bool ok = gen.stripes[s]->enter(self, signal).acquired;
    st.inflight.fetch_sub(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    if (ok) {
      st.acquisitions.fetch_add(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    } else {
      st.aborts.fetch_add(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    }
    return ok;
  }

  static std::vector<std::uint32_t> stripe_order(
      const std::vector<std::uint64_t>& hashes, std::uint32_t mask) {
    std::vector<std::uint32_t> order;
    order.reserve(hashes.size());
    for (const std::uint64_t h : hashes) {
      order.push_back(static_cast<std::uint32_t>(h) & mask);
    }
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    return order;
  }

  M& mem_;
  Config config_;
  Metrics* metrics_;
  std::vector<std::unique_ptr<Generation>> gens_;  ///< resize-serialized
  std::atomic<Generation*> current_{nullptr};
  std::atomic<bool> resizing_{false};
  std::vector<pal::CachePadded<PidLocal>> locals_;
};

}  // namespace aml::table
