// The DSM variant's publish-then-check window (Section 3): a waiter
// publishes announce[i] and then reads go[i]; the signaller writes go[i]
// before reading announce[i]. Whichever order the schedule produces, one
// side must see the other — the waiter either observes go[i] == 1 directly
// (no spin) or parks on its local spin bit and is woken by the signaller.
//
// Bounded-exhaustive exploration at N = 2 drives both interleavings through
// the window and asserts (a) both actually occur, (b) mutual exclusion and
// completion hold in every execution. The spin/no-spin classification comes
// from the obs::Metrics spin_iterations counter of the second process.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>

#include "aml/core/oneshot.hpp"
#include "aml/model/counting_dsm.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/sched/explorer.hpp"

namespace aml::sched {
namespace {

using model::CountingDsmModel;
using model::Pid;

TEST(OneShotDsmWindow, BothSidesOfThePublishCheckWindowOccur) {
  ExploreConfig cfg;
  cfg.nprocs = 2;
  cfg.preemption_bound = 2;
  cfg.max_executions = 150000;
  std::uint64_t spun_runs = 0, direct_runs = 0;
  const ExploreStats stats = explore(cfg, [&](ExecutionContext& ctx) {
    CountingDsmModel m(2);
    core::OneShotLockDsm<CountingDsmModel, obs::Metrics> lock(m, 2, 2);
    obs::Metrics metrics(2, 1, 0);
    lock.set_metrics(&metrics);
    std::atomic<int> in_cs{0};
    bool violation = false;
    bool ok[2] = {false, false};
    std::uint32_t slot_of[2] = {core::kNoSlot, core::kNoSlot};
    m.set_hook(&ctx.scheduler());
    ctx.run([&](Pid p) {
      const auto r = lock.enter(p, nullptr);
      ok[p] = r.acquired;
      slot_of[p] = r.slot;
      if (r.acquired) {
        if (in_cs.fetch_add(1) != 0) violation = true;
        in_cs.fetch_sub(1);
        lock.exit(p);
      }
    });
    m.set_hook(nullptr);
    ASSERT_FALSE(violation);
    // No abort signals: both processes must complete in every schedule.
    ASSERT_TRUE(ok[0]);
    ASSERT_TRUE(ok[1]);
    // The doorway F&A gives out slots 0 and 1 exactly once.
    ASSERT_NE(slot_of[0], slot_of[1]);
    ASSERT_LT(slot_of[0], 2u);
    ASSERT_LT(slot_of[1], 2u);

    // The slot-1 holder is the one that crossed the window: classify by
    // whether it parked on its spin bit or saw go[1] == 1 directly.
    const Pid second = slot_of[0] == 1 ? 0 : 1;
    if (metrics.of(second).spin_iterations > 0) {
      ++spun_runs;
    } else {
      ++direct_runs;
    }
    // The slot-0 holder finds go[0] preset and never spins.
    const Pid first = static_cast<Pid>(1 - second);
    ASSERT_EQ(metrics.of(first).spin_iterations, 0u);
  });
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.executions, 1u);
  // Both resolutions of the race must be exercised by the enumeration:
  // the waiter published before the grant (parked + woken) in some
  // schedule, and read go[i] after the grant (no spin) in another.
  EXPECT_GT(spun_runs, 0u);
  EXPECT_GT(direct_runs, 0u);
}

// Same window with an aborter: the slot-1 process carries a raised signal.
// Exploration must produce both aborted and completed outcomes for it, and
// the lock must stay live (the slot-0 holder always completes).
TEST(OneShotDsmWindow, WindowWithAbortSignalStaysSafe) {
  ExploreConfig cfg;
  cfg.nprocs = 3;  // p0, p1 compete; p2 is the ghost signal-raiser
  cfg.preemption_bound = 2;
  cfg.max_executions = 150000;
  std::uint64_t aborted_runs = 0, completed_runs = 0;
  const ExploreStats stats = explore(cfg, [&](ExecutionContext& ctx) {
    CountingDsmModel m(3);
    core::OneShotLockDsm<CountingDsmModel> lock(m, 2, 2);
    auto* ghost_trigger = m.alloc(1, 0);
    std::deque<std::atomic<bool>> sig(1);
    std::atomic<int> in_cs{0};
    bool violation = false;
    bool ok[2] = {false, false};
    m.set_hook(&ctx.scheduler());
    ctx.run([&](Pid p) {
      if (p == 2) {
        m.read(2, *ghost_trigger);
        sig[0].store(true, std::memory_order_release);
        return;
      }
      const auto r = lock.enter(p, p == 1 ? &sig[0] : nullptr);
      ok[p] = r.acquired;
      if (r.acquired) {
        if (in_cs.fetch_add(1) != 0) violation = true;
        in_cs.fetch_sub(1);
        lock.exit(p);
      }
    });
    m.set_hook(nullptr);
    ASSERT_FALSE(violation);
    ASSERT_TRUE(ok[0]);  // p0 has no signal: must always complete
    if (ok[1]) {
      ++completed_runs;
    } else {
      ++aborted_runs;
    }
  });
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(aborted_runs, 0u);
  EXPECT_GT(completed_runs, 0u);
}

}  // namespace
}  // namespace aml::sched
