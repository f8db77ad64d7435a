// aml::obs unit tests: the sink's event ring (claim/publish tag protocol,
// wraparound, stalled writers), histogram summaries, counters and hand-off
// latency under the heap placement's logical clock, the zero-cost disabled
// sink, and end-to-end sequential integration against the one-shot lock on
// the counting CC model — including passage spans built from a heap ring —
// and against ObservedAbortableLock's instance switches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/obs/trace_export.hpp"

namespace aml::obs {
namespace {

// --- compile-time contract --------------------------------------------------

static_assert(kZeroCostSink<NullMetrics>,
              "disabled sink must add no storage");
static_assert(!kZeroCostSink<Metrics>, "enabled sink must carry a pointer");
static_assert(
    sizeof(core::OneShotLock<model::CountingCcModel>) <=
        sizeof(core::OneShotLock<model::CountingCcModel, Metrics>),
    "NullMetrics lock must not be larger than the instrumented one");

/// A ring event with the given kind, pid, slot and timestamp.
Event ev(EventKind kind, model::Pid pid, std::uint32_t slot,
         std::uint64_t ts) {
  return Event{.kind = kind, .pid = pid, .slot = slot, .ts = ts};
}

void push(Metrics& m, const Event& e) { m.publish(m.claim(), e); }

// --- the event ring ---------------------------------------------------------

TEST(EventRingTest, DisabledWhenCapacityZero) {
  Metrics m(1, 1, 0);
  push(m, ev(EventKind::kEnter, 0, 1, 10));
  m.on_enter(0, 0, 1, 0);
  m.on_granted(0, 0, 1, 0);
  EXPECT_EQ(m.ring_capacity(), 0u);
  EXPECT_EQ(m.ring_total(), 0u);
  EXPECT_TRUE(m.ring_snapshot().empty());
}

TEST(EventRingTest, RetainsInOrderBelowCapacity) {
  Metrics m(8, 1, 8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    push(m, ev(EventKind::kEnter, static_cast<model::Pid>(i),
               static_cast<std::uint32_t>(i), i + 1));
  }
  EXPECT_EQ(m.ring_total(), 5u);
  EXPECT_EQ(m.ring_dropped(), 0u);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, i + 1);
    EXPECT_EQ(events[i].slot, i);
    EXPECT_EQ(events[i].seq, i);
  }
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped) {
  Metrics m(1, 1, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    push(m, ev(EventKind::kExit, 0, static_cast<std::uint32_t>(i), i + 1));
  }
  EXPECT_EQ(m.ring_total(), 10u);
  EXPECT_EQ(m.ring_dropped(), 6u);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: slots 6,7,8,9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].slot, 6u + i);
  }
}

TEST(EventRingTest, StalledWriterSlotSkippedNotTorn) {
  // The wrap race the per-slot sequence tags exist for: writer A claims a
  // slot and stalls before publishing; other writers wrap the ring past it.
  // ring_snapshot() must skip A's slot (odd tag, or stale generation)
  // instead of returning whatever half-written payload sits there.
  Metrics m(10, 1, 4);
  const Metrics::Claim stalled = m.claim();  // seq 0, never published
  for (std::uint64_t i = 1; i <= 4; ++i) {
    // Seqs 1..4: seq 4 wraps onto the stalled slot's index (4 % 4 == 0)
    // and overwrites its claim tag.
    push(m, ev(EventKind::kEnter, 0, static_cast<std::uint32_t>(i), i));
  }
  std::uint64_t torn = 0;
  auto events = m.ring_snapshot(&torn);
  // Retained window is seqs 1..4, all published: nothing torn, and the
  // stalled seq-0 entry is outside the window entirely.
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].ts, i + 1);

  // Now the stalled writer finally publishes — long after its slot was
  // recycled for seq 4. The stale even tag names seq 0, so the slot no
  // longer matches seq 4's expected tag and is skipped and counted.
  m.publish(stalled, ev(EventKind::kAbort, 9, 99, 999));
  events = m.ring_snapshot(&torn);
  EXPECT_EQ(torn, 1u);
  ASSERT_EQ(events.size(), 3u);
  for (const Event& e : events) {
    EXPECT_NE(e.slot, 99u);  // the stale payload never surfaces
    EXPECT_NE(e.ts, 999u);
  }
}

TEST(EventRingTest, ClaimedButUnpublishedSlotInWindowIsSkipped) {
  Metrics m(2, 1, 8);
  push(m, ev(EventKind::kEnter, 1, 1, 1));
  const Metrics::Claim stalled = m.claim();  // seq 1: odd tag, in window
  push(m, ev(EventKind::kGranted, 1, 1, 3));
  std::uint64_t torn = 0;
  const auto events = m.ring_snapshot(&torn);
  EXPECT_EQ(torn, 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 1u);
  EXPECT_EQ(events[1].ts, 3u);
  // Late publish into a still-current slot heals it: the tag now matches.
  m.publish(stalled, ev(EventKind::kAbort, 1, 1, 2));
  const auto healed = m.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(healed.size(), 3u);
  EXPECT_EQ(healed[1].ts, 2u);
  EXPECT_EQ(healed[1].kind, EventKind::kAbort);
}

TEST(EventRingTest, KindNames) {
  EXPECT_STREQ(event_kind_name(EventKind::kEnter), "enter");
  EXPECT_STREQ(event_kind_name(EventKind::kGranted), "granted");
  EXPECT_STREQ(event_kind_name(EventKind::kAbort), "abort");
  EXPECT_STREQ(event_kind_name(EventKind::kExit), "exit");
  EXPECT_STREQ(event_kind_name(EventKind::kSwitch), "switch");
  EXPECT_STREQ(event_kind_name(EventKind::kAbortOnBehalf), "forced-abort");
  EXPECT_STREQ(event_kind_name(EventKind::kZombieReclaim),
               "zombie-reclaimed");
  // Numbered from 1: an all-zero meta word never decodes as an event.
  EXPECT_EQ(static_cast<int>(EventKind::kEnter), 1);
  EXPECT_FALSE(event_is_recovery(EventKind::kExit));
  EXPECT_TRUE(event_is_recovery(EventKind::kForcedExit));
}

// --- histograms -------------------------------------------------------------

TEST(HistogramTest, BucketGeometry) {
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(bucket_upper(0), 0u);
  EXPECT_EQ(bucket_upper(1), 1u);
  EXPECT_EQ(bucket_upper(2), 3u);
  EXPECT_EQ(bucket_upper(3), 7u);
}

TEST(HistogramTest, EmptySnapshot) {
  Metrics m(1, 1, 0);
  const HistogramSnapshot s = m.handoff();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.p99, 0u);
}

TEST(HistogramTest, SummaryStats) {
  Metrics m(1, 1, 0);
  for (std::uint64_t v : {1u, 2u, 3u, 100u}) m.record_sweep_ns(v);
  const HistogramSnapshot s = m.sweep_latency();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_DOUBLE_EQ(s.mean, 26.5);
  // p50 rank = 2 -> value 2 lives in bucket 2 (upper bound 3).
  EXPECT_EQ(s.p50, 3u);
  // p99 rank = 4 -> 100 lives in bucket 7 (upper bound 127).
  EXPECT_EQ(s.p99, 127u);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CountersPerProcessAndTotals) {
  Metrics m(3, 1, 0);
  m.on_granted(0, 0, 5, 0);
  m.on_granted(0, 0, 6, 0);
  m.on_abort(0, 1, 2, 0);
  m.on_spin_iteration(2);
  m.on_spin_iteration(2);
  m.on_spin_iteration(2);
  m.on_findnext(0);
  m.on_switch(0, 1, 0);
  m.on_spin_node_recycle(2, 4);
  EXPECT_EQ(m.of(0).acquisitions, 2u);
  EXPECT_EQ(m.of(1).aborts, 1u);
  EXPECT_EQ(m.of(2).spin_iterations, 3u);
  const Metrics::Totals t = m.totals();
  EXPECT_EQ(t.acquisitions, 2u);
  EXPECT_EQ(t.aborts, 1u);
  EXPECT_EQ(t.spin_iterations, 3u);
  EXPECT_EQ(t.findnext_ascents, 1u);
  EXPECT_EQ(t.instance_switches, 1u);
  EXPECT_EQ(t.spin_node_recycles, 4u);
}

TEST(MetricsTest, HandoffLatencyRecordedBetweenExitAndGrant) {
  Metrics m(2, 1, 0);
  m.on_granted(0, 0, 0, 0);  // tick 1, no pending hand-off
  m.on_exit(0, 0, 0, 0);     // tick 2, arms hand-off
  m.on_enter(0, 1, 1, 0);    // ring off: no tick
  m.on_granted(0, 1, 1, 0);  // tick 3 -> latency 3 - 2 = 1
  const HistogramSnapshot s = m.handoff();
  ASSERT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 1u);
}

TEST(MetricsTest, RingOffAdvancesClockOnlyForTheHandoffPair) {
  Metrics m(2, 1, 0);
  m.on_exit(0, 0, 0, 0);  // tick 1
  for (int i = 0; i < 5; ++i) {
    m.on_enter(0, 1, 1, 0);
    m.on_abort(0, 1, 1, 0);
    m.on_switch(0, 1, 0);
  }
  m.on_granted(0, 1, 2, 0);  // tick 2: the 15 ring-only hooks took no ticks
  EXPECT_EQ(m.handoff().sum, 1u);
  EXPECT_EQ(m.ring_total(), 0u);
}

TEST(MetricsTest, RingRecordsLifecycle) {
  Metrics m(2, 1, 16);
  m.on_enter(0, 0, 0, 0);
  m.on_granted(0, 0, 0, 0);
  m.on_exit(0, 0, 0, 0);
  m.on_switch(0, 1, 0);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kEnter);
  EXPECT_EQ(events[1].kind, EventKind::kGranted);
  EXPECT_EQ(events[2].kind, EventKind::kExit);
  EXPECT_EQ(events[3].kind, EventKind::kSwitch);
  EXPECT_EQ(events[3].slot, kNoSlot);
  // Heap placement, ring on: every event takes the next logical tick.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, i + 1);
  }
}

// --- SinkHandle -------------------------------------------------------------

TEST(SinkHandleTest, NullBoundHandleIsInert) {
  SinkHandle<Metrics> h;  // never bound
  h.on_granted(0, 0);     // must not crash
  EXPECT_EQ(h.get(), nullptr);
}

TEST(SinkHandleTest, BoundHandleForwards) {
  Metrics m(2, 4, 8);
  SinkHandle<Metrics> h;
  h.bind(&m, /*stripe=*/3, /*instance=*/2);
  h.on_granted(0, 3);
  EXPECT_EQ(m.totals().acquisitions, 1u);
  // The handle supplies the stripe and instance the sink records.
  h.on_enter(1, 5);
  h.on_switch(1, 7);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 3u);  // granted, enter, switch
  EXPECT_EQ(events[1].kind, EventKind::kEnter);
  EXPECT_EQ(events[1].stripe, 3u);
  EXPECT_EQ(events[1].instance, 2u);
  EXPECT_EQ(events[1].slot, 5u);
  // A switch names the instance it installed, not the handle's own.
  EXPECT_EQ(events[2].kind, EventKind::kSwitch);
  EXPECT_EQ(events[2].stripe, 3u);
  EXPECT_EQ(events[2].instance, 7u);
}

// --- integration: instrumented one-shot lock on the counting model ----------

TEST(ObsIntegrationTest, OneShotSequentialLifecycle) {
  constexpr std::uint32_t kN = 4;
  model::CountingCcModel mdl(kN);
  core::OneShotLock<model::CountingCcModel, Metrics> lock(mdl, kN, 2);
  Metrics metrics(kN, 1, 64);
  lock.set_metrics(&metrics);

  std::deque<std::atomic<bool>> signals(kN);
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto r = lock.enter(p, &signals[p]);
    ASSERT_TRUE(r.acquired);
    lock.exit(p);
  }

  const Metrics::Totals t = metrics.totals();
  EXPECT_EQ(t.acquisitions, kN);
  EXPECT_EQ(t.aborts, 0u);
  // Every exit runs SignalNext.
  EXPECT_EQ(t.findnext_ascents, kN);

  // Sequential and uncontended: enter/granted/exit per process, in order.
  const auto events = metrics.ring_snapshot();
  ASSERT_EQ(events.size(), 3u * kN);
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_EQ(events[3 * p].kind, EventKind::kEnter);
    EXPECT_EQ(events[3 * p].pid, p);
    EXPECT_EQ(events[3 * p].slot, p);  // FCFS doorway: slot == arrival order
    EXPECT_EQ(events[3 * p + 1].kind, EventKind::kGranted);
    EXPECT_EQ(events[3 * p + 2].kind, EventKind::kExit);
  }

  // Hand-offs: kN-1 exit->granted pairs.
  EXPECT_EQ(metrics.handoff().count, kN - 1);
}

TEST(ObsIntegrationTest, AbortIsCounted) {
  model::CountingCcModel mdl(2);
  core::OneShotLock<model::CountingCcModel, Metrics> lock(mdl, 2, 2);
  Metrics metrics(2, 1, 0);
  lock.set_metrics(&metrics);

  std::deque<std::atomic<bool>> signals(2);
  ASSERT_TRUE(lock.enter(0, &signals[0]).acquired);
  signals[1].store(true, std::memory_order_release);
  EXPECT_FALSE(lock.enter(1, &signals[1]).acquired);
  lock.exit(0);

  EXPECT_EQ(metrics.totals().aborts, 1u);
  EXPECT_EQ(metrics.of(1).aborts, 1u);
  EXPECT_GT(metrics.of(1).spin_iterations, 0u);
}

TEST(ObsIntegrationTest, SwitchEventsNameTheInstalledInstance) {
  // Every uncontended passage ends in an instance switch (its Cleanup finds
  // Refcnt 1). The kSwitch event names the instance the switch installed:
  // the one the next passage's doorway joins, and the lock's installed
  // instance once the run ends. Instances alternate, so some are not 0.
  ObservedAbortableLock lock({.max_threads = 2});
  Metrics metrics(2, 1, 256);
  lock.set_metrics(&metrics);
  constexpr std::uint32_t kPassages = 6;
  for (std::uint32_t i = 0; i < kPassages; ++i) {
    lock.enter(i % 2);
    lock.exit(i % 2);
  }

  const auto events = metrics.ring_snapshot();
  std::uint64_t switches = 0;
  bool named_nonzero = false;
  std::uint32_t last_installed = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != EventKind::kSwitch) continue;
    ++switches;
    last_installed = events[i].instance;
    named_nonzero = named_nonzero || events[i].instance != 0;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind != EventKind::kEnter) continue;
      EXPECT_EQ(events[j].instance, events[i].instance) << "event " << j;
      break;
    }
  }
  EXPECT_EQ(switches, kPassages);
  EXPECT_EQ(metrics.totals().instance_switches, switches);
  EXPECT_TRUE(named_nonzero);
  EXPECT_EQ(last_installed, lock.peek_installed(0));
}

TEST(ObsIntegrationTest, PassageSpansFromHeapRing) {
  // The passage tracer reads a heap-placed ring exactly as it reads a
  // segment's: one span per attempt, granted ones with a CS, the aborted
  // one closed by its owner — in logical ticks, so the spans nest.
  model::CountingCcModel mdl(2);
  core::OneShotLock<model::CountingCcModel, Metrics> lock(mdl, 2, 2);
  Metrics metrics(2, 1, 64);
  lock.set_metrics(&metrics);

  std::deque<std::atomic<bool>> signals(2);
  ASSERT_TRUE(lock.enter(0, &signals[0]).acquired);
  signals[1].store(true, std::memory_order_release);
  EXPECT_FALSE(lock.enter(1, &signals[1]).acquired);
  lock.exit(0);

  const std::vector<PassageSpan> spans =
      assemble_passage_spans(metrics.ring_snapshot());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].pid, 0u);
  EXPECT_TRUE(spans[0].granted);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[0].close_kind, EventKind::kExit);
  EXPECT_LT(spans[0].begin_ns, spans[0].granted_ns);
  EXPECT_LT(spans[0].granted_ns, spans[0].end_ns);
  EXPECT_EQ(spans[1].pid, 1u);
  EXPECT_FALSE(spans[1].granted);
  EXPECT_TRUE(spans[1].closed);
  EXPECT_FALSE(spans[1].forced);
  EXPECT_EQ(spans[1].close_kind, EventKind::kAbort);
  EXPECT_LT(spans[1].begin_ns, spans[1].end_ns);
}

}  // namespace
}  // namespace aml::obs
