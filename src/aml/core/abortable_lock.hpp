// aml::AbortableLock — the deployable, native-hardware instantiation of the
// paper's long-lived abortable lock (quickstart API).
//
//   aml::AbortableLock lock(aml::LockConfig{.max_threads = 8});
//   aml::AbortSignal signal;
//   if (lock.enter(tid, signal)) {   // blocks; false <=> aborted
//     ... critical section ...
//     lock.exit(tid);
//   }
//
// Each participating thread must use a distinct id in [0, max_threads).
// enter() returns false only if the signal was raised; it may return true
// even when the signal is up (the hand-off won the race — footnote 2 of the
// paper). AbortSignal is level-triggered: reset() it before reuse.
//
// On 64-bit hardware W = 64, so the RMR cost of a passage is
// O(log_64 A) — at most 3 cache-line transfers of tree traversal even at
// tens of thousands of threads, and O(1) when nobody aborts.
#pragma once

#include <atomic>
#include <cstdint>

#include "aml/model/native.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/edges.hpp"
#include "aml/core/longlived.hpp"

namespace aml {

/// Level-triggered abort signal. May be raised by any thread (e.g. a timer,
/// a priority manager, a deadlock detector); observed by the waiter inside
/// enter().
class AbortSignal {
 public:
  /// Release so the waiter that observes the flag also sees everything the
  /// raiser did before raising (deadline bookkeeping, reason codes).
  void raise() { flag_.store(true, std::memory_order_release); }  // AML_V_EDGE(core.abort_signal)
  void reset() { flag_.store(false, std::memory_order_release); }  // AML_V_EDGE(core.abort_signal)
  bool raised() const { return flag_.load(std::memory_order_acquire); }  // AML_X_EDGE(core.abort_signal)

  /// The raw flag the lock's wait loops poll.
  const std::atomic<bool>* flag() const { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
};

struct LockConfig {
  std::uint32_t max_threads = 64;
  /// Tree arity. 64 (the full machine word) is the paper's W = Theta(N^eps)
  /// regime; smaller values are mainly useful for experiments.
  std::uint32_t tree_width = 64;
};

/// `Metrics` selects the observability sink (aml/obs/metrics.hpp). The
/// default NullMetrics is statically guaranteed zero-cost: the sink handles
/// embedded in the lock are empty and every hook is a static no-op, so the
/// native enter/exit hot paths carry no observability loads or stores.
///
/// `Model` selects the hardware memory model flavor: NativeModel (per-edge
/// acquire/release, the default) or NativeModelSeqCst (every edge lowered
/// to seq_cst — the A/B baseline bench_native_throughput gates against).
template <typename Metrics = obs::NullMetrics,
          typename Model = model::NativeModel>
class BasicAbortableLock {
 public:
  using MetricsSink = Metrics;
  using MemoryModel = Model;

  explicit BasicAbortableLock(LockConfig config = {})
      : model_(config.max_threads),
        lock_(model_, {.nprocs = config.max_threads,
                       .w = config.tree_width,
                       .find = core::Find::kAdaptive}) {}

  BasicAbortableLock(const BasicAbortableLock&) = delete;
  BasicAbortableLock& operator=(const BasicAbortableLock&) = delete;

  /// Bind an observability sink (no-op for the NullMetrics default). Call
  /// before the participating threads start.
  void set_metrics(Metrics* sink, std::uint32_t stripe = 0) {
    lock_.set_metrics(sink, stripe);
  }

  /// Acquire the lock. Returns false iff the attempt was abandoned because
  /// `signal` was raised while waiting. Starvation-free when no signal is
  /// raised; bounded abort when one is.
  bool enter(std::uint32_t thread_id, const AbortSignal& signal) {
    return lock_.enter(thread_id, signal.flag()).acquired;
  }

  /// Acquire without abort support. An unsignalled attempt cannot observe a
  /// stop flag, so enter() can only legitimately return acquired; retry
  /// instead of asserting so that even a build that compiles assertions out
  /// (or a future lock flavor with spurious abort exits) can never return
  /// from here without the lock held.
  void enter(std::uint32_t thread_id) {
    while (!lock_.enter(thread_id, nullptr).acquired) {
      // Unreachable with the current lock; harmless retry if it ever isn't.
    }
  }

  /// Release the lock. Wait-free (bounded exit).
  void exit(std::uint32_t thread_id) { lock_.exit(thread_id); }

  /// Index of the installed one-shot instance (testing aid).
  std::uint32_t peek_installed(std::uint32_t thread_id) {
    return lock_.peek_installed(thread_id);
  }

 private:
  Model model_;
  core::LongLivedLock<Model, core::VersionedSpace, core::OneShotLock, Metrics>
      lock_;
};

/// The production default: metrics disabled, fast path uninstrumented.
using AbortableLock = BasicAbortableLock<>;

static_assert(obs::kZeroCostSink<AbortableLock::MetricsSink>,
              "the default AbortableLock must compile with a zero-cost "
              "observability sink — no loads or stores on the hot path");

/// The instrumented flavor (per-process counters, event ring, hand-off
/// histogram). See aml/obs/metrics.hpp for usage.
using ObservedAbortableLock = BasicAbortableLock<obs::Metrics>;

}  // namespace aml
