// Crash-surviving observability coverage: the segment-hosted Metrics
// sink (per-pid counters, the claim-odd/publish-even event ring, recovery
// dispatch counters), the passage tracer that folds the ring into spans,
// and the aml_stat JSON snapshot — all read back the way tools/aml_stat
// reads them, including against a "victim" whose death is forged with an
// ESRCH os pid so each recovery dispatch arm can be staged deterministically
// in-process. Genuine SIGKILL coverage of the same assertions lives in
// shm_fork_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "aml/core/oneshot.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/ipc/stat_snapshot.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/obs/trace_export.hpp"

namespace aml::ipc {
namespace {

using namespace std::chrono_literals;
using obs::Event;
using obs::EventKind;

constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

std::string unique_name(const char* tag) {
  static int counter = 0;
  return std::string("/aml-test-stat-") + tag + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

ShmTableConfig small_config() {
  ShmTableConfig cfg;
  cfg.nprocs = 4;
  cfg.stripes = 2;
  cfg.tree_width = 64;
  return cfg;
}

struct ScopedSegment {
  explicit ScopedSegment(std::string n) : name(std::move(n)) {}
  ~ScopedSegment() { ShmNamedLockTable::unlink(name); }
  std::string name;
};

std::vector<Event> events_of_kind(const obs::Metrics& shm, EventKind kind) {
  std::vector<Event> out;
  for (const Event& e : shm.ring_snapshot()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

// --- one sink, two placements ---------------------------------------------

/// The same passages on any placement: a one-shot lock on the counting
/// model (a grant, an abort while held, a hand-off) plus the stripe-level
/// hooks the shm stripe drives directly (a switch, a recovery arm).
void script_passages(obs::Metrics& m) {
  model::CountingCcModel mdl(3);
  core::OneShotLock<model::CountingCcModel, obs::Metrics> lock(mdl, 3, 2);
  lock.set_metrics(&m);
  std::deque<std::atomic<bool>> signals(3);
  ASSERT_TRUE(lock.enter(0, &signals[0]).acquired);
  signals[1].store(true, std::memory_order_release);
  EXPECT_FALSE(lock.enter(1, &signals[1]).acquired);
  lock.exit(0);
  ASSERT_TRUE(lock.enter(2, &signals[2]).acquired);
  lock.exit(2);
  m.on_switch(0, 2, 1);
  m.on_spin_node_recycle(2, 3);
  m.on_recovery_arm(EventKind::kForcedExit, 0, 2, 1, 1, 0);
}

TEST(ShmIpcStat, HeapAndSegmentPlacementsAgree) {
  constexpr Pid kN = 3;
  constexpr std::uint32_t kRing = 32;
  const std::uint64_t footprint = obs::Metrics::footprint_bytes(kN, 1, kRing);
  ScopedSegment seg(unique_name("placement"));
  std::string error;
  auto arena = ShmArena::create(seg.name, ShmArena::kDataBegin + footprint,
                                /*config_hash=*/1, &error);
  ASSERT_NE(arena, nullptr) << error;
  obs::Metrics placed(*arena, kN, 1, kRing);
  EXPECT_LE(arena->cursor() - ShmArena::kDataBegin, footprint);
  obs::Metrics heap(kN, 1, kRing);
  script_passages(placed);
  script_passages(heap);

  for (Pid p = 0; p < kN; ++p) {
    const obs::Metrics::Totals a = placed.of(p);
    const obs::Metrics::Totals b = heap.of(p);
    EXPECT_EQ(a.acquisitions, b.acquisitions) << "pid " << p;
    EXPECT_EQ(a.aborts, b.aborts) << "pid " << p;
    EXPECT_EQ(a.spin_iterations, b.spin_iterations) << "pid " << p;
    EXPECT_EQ(a.findnext_ascents, b.findnext_ascents) << "pid " << p;
    EXPECT_EQ(a.instance_switches, b.instance_switches) << "pid " << p;
    EXPECT_EQ(a.spin_node_recycles, b.spin_node_recycles) << "pid " << p;
  }
  EXPECT_EQ(heap.totals().acquisitions, 2u);
  EXPECT_EQ(heap.totals().aborts, 1u);
  EXPECT_EQ(placed.recovery_totals().forced_exits, 1u);
  EXPECT_EQ(heap.recovery_totals().forced_exits, 1u);
  EXPECT_EQ(placed.handoff().count, heap.handoff().count);

  const std::vector<Event> a = placed.ring_snapshot();
  const std::vector<Event> b = heap.ring_snapshot();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 10u);  // 2 passages x 3, enter + abort, switch, arm
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].pid, b[i].pid) << "event " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "event " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "event " << i;
    EXPECT_EQ(a[i].victim, b[i].victim) << "event " << i;
    EXPECT_EQ(a[i].instance, b[i].instance) << "event " << i;
    // Timestamps follow the placement: ticks on the heap, CLOCK_MONOTONIC
    // in the segment.
    EXPECT_EQ(b[i].ts, i + 1);
    if (i != 0) {
      EXPECT_LE(a[i - 1].ts, a[i].ts);
    }
  }
  EXPECT_GT(a.front().ts, a.size());
}

// --- the shm ring itself ---------------------------------------------------

TEST(ShmIpcStat, LifecycleEventsLandInTheSegmentRing) {
  ScopedSegment seg(unique_name("ring"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  {
    auto guard = session->acquire(std::uint64_t{7});
  }

  obs::Metrics& shm = table->shm_metrics();
  // One full passage: enter, granted, exit — all attributed to the session's
  // dense pid, stamped with this OS process, in ring order.
  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> events = shm.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_GE(events.size(), 3u);
  std::vector<EventKind> kinds;
  for (const Event& e : events) {
    EXPECT_EQ(e.pid, session->id());
    EXPECT_EQ(e.writer_os_pid, static_cast<std::uint64_t>(::getpid()));
    kinds.push_back(e.kind);
  }
  const std::vector<EventKind> expect = {
      EventKind::kEnter, EventKind::kGranted, EventKind::kExit};
  EXPECT_EQ(std::vector<EventKind>(kinds.begin(), kinds.begin() + 3),
            expect);

  const obs::Metrics::Totals totals = shm.totals();
  EXPECT_EQ(totals.acquisitions, 1u);
  EXPECT_EQ(totals.aborts, 0u);
  EXPECT_EQ(shm.of(session->id()).acquisitions, 1u);

  // The passage's Cleanup switched instances: the lock emits exactly one
  // switch event per counted switch (none from the journal on top), and it
  // names the instance now installed on the key's stripe.
  std::uint64_t switch_events = 0;
  for (const Event& e : events) {
    if (e.kind != EventKind::kSwitch) continue;
    ++switch_events;
    EXPECT_EQ(e.instance,
              table->stripe(e.stripe).peek_installed(session->id()));
  }
  EXPECT_GT(switch_events, 0u);
  EXPECT_EQ(switch_events, totals.instance_switches);
  EXPECT_EQ(totals.instance_switches, 1u);  // one uncontended passage
}

TEST(ShmIpcStat, RingWrapKeepsNewestAndCountsDropped) {
  ScopedSegment seg(unique_name("wrap"));
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 16;  // tiny: a handful of passages wraps it
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  for (int i = 0; i < 16; ++i) {
    auto guard = session->acquire(std::uint64_t{3});  // 3 events per passage
  }

  obs::Metrics& shm = table->shm_metrics();
  // 16 passages at >= 3 events each overflowed the 16-slot ring for sure.
  const std::uint64_t total = shm.ring_total();
  EXPECT_GE(total, 48u);
  EXPECT_EQ(shm.ring_dropped(), total - 16u);
  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> events = shm.ring_snapshot(&torn);
  // Quiesced single writer: the retained window is fully published.
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first and contiguous, ending at the newest sequence number.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, total - 1);
}

TEST(ShmIpcStat, HandoffHistogramRecordsCrossSessionHandoffs) {
  ScopedSegment seg(unique_name("handoff"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto a = table->open_session();
  auto b = table->open_session();
  ASSERT_TRUE(a && b);
  const std::uint64_t key = 5;
  for (int i = 0; i < 4; ++i) {
    { auto guard = a->acquire(key); }
    { auto guard = b->acquire(key); }
  }
  // Every grant after the first claims the previous exit's parked
  // timestamp (same stripe), regardless of which session held before.
  const obs::HistogramSnapshot h = table->shm_metrics().handoff();
  EXPECT_GE(h.count, 7u);
  EXPECT_GT(h.sum, 0u);
  EXPECT_GE(h.p99, h.p50);
}

// --- recovery dispatch arms: one typed event each, victim pid attached ----

TEST(ShmIpcStat, ForcedExitArmEmitsOneTypedEventWithVictim) {
  ScopedSegment seg(unique_name("fexit"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  obs::Metrics& shm = table->shm_metrics();
  const auto forced = events_of_kind(shm, EventKind::kForcedExit);
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].victim, victim->id());
  EXPECT_EQ(forced[0].pid, survivor->id());  // the executor
  EXPECT_EQ(forced[0].stripe, s);

  const obs::RecoverySnapshot rec = shm.recovery_totals();
  EXPECT_EQ(rec.forced_exits, 1u);
  EXPECT_EQ(rec.total(), 1u);
  EXPECT_EQ(shm.recovery_stripe(s).forced_exits, 1u);
  EXPECT_EQ(shm.recovery_stripe(1).forced_exits, 0u);
  // The sweep repaired something, so its latency landed in the segment.
  EXPECT_EQ(shm.sweep_latency().count, 1u);
}

TEST(ShmIpcStat, ZombieRetireArmEmitsOneTypedEventWithVictim) {
  ScopedSegment seg(unique_name("zombie"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  // Forge a death inside the one remaining journal-blind window (v3): in
  // the one-shot doorway with no attempt recorded — the tail F&A may or may
  // not have run. The sweep must retire the pid as a zombie, repair
  // nothing, and say so in the ring. (The cleanup F&A window this test used
  // to forge is decidable now; see the ForgedCleanup* tests.)
  table->stripe(0).debug_set_phase(victim->id(), kDoorway);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 0u);  // zombies are not "recovered"

  obs::Metrics& shm = table->shm_metrics();
  const auto retired = events_of_kind(shm, EventKind::kZombieRetire);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].victim, victim->id());
  EXPECT_EQ(retired[0].pid, survivor->id());
  EXPECT_EQ(shm.recovery_totals().zombie_retires, 1u);
  EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kZombie);
  EXPECT_EQ(table->recovery_stats().zombie_pids, 1u);
}

TEST(ShmIpcStat, JoinedVictimAbortedOnBehalfWithOneTypedEvent) {
  ScopedSegment seg(unique_name("joined"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  // A full passage first so the journal's refcnt bookkeeping matches the
  // forged kJoined window (refcnt bumped, no doorway presence yet).
  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->stripe(s).exit(victim->id());
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->stripe(s).exit(victim->id());

  table->stripe(s).debug_forge_joined(victim->id());
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  obs::Metrics& shm = table->shm_metrics();
  const auto aborted = events_of_kind(shm, EventKind::kAbortOnBehalf);
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0].victim, victim->id());
  EXPECT_EQ(aborted[0].pid, survivor->id());
  EXPECT_EQ(shm.recovery_totals().aborts_on_behalf, 1u);
  EXPECT_EQ(table->recovery_stats().forced_aborts, 1u);

  // The repair left the stripe acquirable.
  ASSERT_TRUE(table->stripe(s).enter(survivor->id(), nullptr).acquired);
  table->stripe(s).exit(survivor->id());
}

// --- passage tracer --------------------------------------------------------

TEST(ShmIpcStat, TracerClosesVictimSpanForcedWithRecoveryAnnotation) {
  ScopedSegment seg(unique_name("trace"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  ASSERT_EQ(survivor->recover_dead(), 1u);
  {  // a normal passage after the sweep: its span must close un-forced
    auto guard = survivor->acquire(std::uint64_t{0});
  }

  const std::vector<Event> events =
      table->shm_metrics().ring_snapshot();
  const std::vector<obs::PassageSpan> spans =
      obs::assemble_passage_spans(events);

  // The crash-and-recover episode, structurally: the victim's span is
  // granted, closed, *forced*, terminal kind forced-exit, annotated with
  // the surviving executor's pid.
  const obs::PassageSpan* victim_span = nullptr;
  for (const obs::PassageSpan& span : spans) {
    if (span.pid == victim->id() && span.forced) victim_span = &span;
  }
  ASSERT_NE(victim_span, nullptr);
  EXPECT_TRUE(victim_span->granted);
  EXPECT_TRUE(victim_span->closed);
  EXPECT_EQ(victim_span->close_kind, EventKind::kForcedExit);
  EXPECT_EQ(victim_span->recovered_by, survivor->id());
  EXPECT_GE(victim_span->end_ns, victim_span->begin_ns);

  bool survivor_clean = false;
  for (const obs::PassageSpan& span : spans) {
    if (span.pid == survivor->id() && span.closed && !span.forced &&
        span.close_kind == EventKind::kExit) {
      survivor_clean = true;
    }
  }
  EXPECT_TRUE(survivor_clean);

  // The Chrome export of the same ring is loadable structure: complete
  // ("X") span events, the forced outcome, and the recovery instant.
  std::ostringstream trace;
  obs::write_chrome_trace(trace, events);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"forced-exit\""), std::string::npos);
  EXPECT_NE(json.find("\"recovered_by\":" + std::to_string(survivor->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"forced\":true"), std::string::npos);
}

TEST(ShmIpcStat, TracerSynthesizesSpanWhenOpeningEventWrapped) {
  // Ring wrap robustness: a terminal whose opening enter was overwritten
  // still yields a (partial) span instead of disappearing.
  std::vector<Event> events;
  Event term;
  term.kind = EventKind::kAbortOnBehalf;
  term.stripe = 1;
  term.pid = 2;      // executor
  term.victim = 0;   // victim whose enter was lost
  term.seq = 900;
  term.ts = 5'000;
  events.push_back(term);

  const std::vector<obs::PassageSpan> spans =
      obs::assemble_passage_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].pid, 0u);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_TRUE(spans[0].forced);
  EXPECT_EQ(spans[0].recovered_by, 2u);
  EXPECT_EQ(spans[0].close_kind, EventKind::kAbortOnBehalf);
}

// --- aml_stat snapshot -----------------------------------------------------

TEST(ShmIpcStat, StatJsonReportsVictimPhaseThenRecoveryCounters) {
  ScopedSegment seg(unique_name("json"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);

  // Pre-sweep snapshot: the victim's last journaled phase is visible — the
  // post-mortem signal an operator reads off an orphaned segment.
  std::ostringstream pre;
  write_stat_json(pre, *table);
  const std::string before = pre.str();
  EXPECT_NE(before.find("\"phase\":\"holding\""), std::string::npos);
  EXPECT_NE(before.find("\"kind\":\"granted\""), std::string::npos);
  EXPECT_NE(before.find("\"recovery\":{\"forced_exits\":0"),
            std::string::npos);

  ASSERT_EQ(survivor->recover_dead(), 1u);

  // Post-sweep snapshot: the phase is repaired away, the dispatch counters
  // and the typed ring event say what happened.
  std::ostringstream post;
  write_stat_json(post, *table);
  const std::string after = post.str();
  EXPECT_EQ(after.find("\"phase\":\"holding\""), std::string::npos);
  EXPECT_NE(after.find("\"forced_exits\":1"), std::string::npos);
  EXPECT_NE(after.find("\"kind\":\"forced-exit\""), std::string::npos);
  EXPECT_NE(after.find("\"victim\":" + std::to_string(victim->id())),
            std::string::npos);
  EXPECT_NE(after.find("\"state\":\"free\""), std::string::npos);
}

TEST(ShmIpcStat, PeekConfigDiscoversCreatorLayout) {
  ScopedSegment seg(unique_name("peek"));
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 512;
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  // This is aml_stat's attach path: discover the layout from the segment's
  // own header, then attach with it — no out-of-band configuration.
  ShmTableConfig peeked;
  ASSERT_TRUE(ShmNamedLockTable::peek_config(seg.name, &peeked, &error))
      << error;
  EXPECT_EQ(peeked.nprocs, cfg.nprocs);
  EXPECT_EQ(peeked.stripes, cfg.stripes);
  EXPECT_EQ(peeked.tree_width, cfg.tree_width);
  EXPECT_EQ(peeked.ring_capacity, cfg.ring_capacity);

  auto replica = ShmNamedLockTable::attach(seg.name, peeked, &error);
  ASSERT_NE(replica, nullptr) << error;
  // The replica reads the same segment-hosted metrics words.
  { auto guard = table->open_session()->acquire(std::uint64_t{1}); }
  EXPECT_EQ(replica->shm_metrics().totals().acquisitions, 1u);
}

TEST(ShmIpcStat, PeekConfigRejectsMissingSegment) {
  ShmTableConfig cfg;
  std::string error;
  EXPECT_FALSE(ShmNamedLockTable::peek_config(unique_name("absent"), &cfg,
                                              &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace aml::ipc
