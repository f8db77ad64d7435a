// ShmNamedLockTable at its representational limits: configurations the
// segment layout cannot express are refused with an error (never an abort),
// and the two journal counters that wrap — the 24-bit announcement stamp in
// LockDesc and the 32-bit recovery seqlock sequence — keep recovery correct
// across their wrap.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include <unistd.h>

#include "aml/ipc/shm_table.hpp"

namespace aml::ipc {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;
constexpr std::uint64_t kStampWrap = std::uint64_t{1} << 24;

std::string unique_name(const char* tag) {
  static int counter = 0;
  return std::string("/aml-test-bounds-") + tag + "-" +
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

std::uint64_t ring_count(const ShmNamedLockTable& table,
                         obs::EventKind kind, Pid victim) {
  std::uint64_t n = 0;
  for (const auto& e : table.shm_metrics().ring_snapshot()) {
    if (e.kind == kind && e.victim == victim) ++n;
  }
  return n;
}

/// Both entry points refuse `bad` with a config error. attach is pointed at
/// a live segment made with a valid config, so a refusal there comes from
/// validation, not from a missing segment.
void expect_refused(const ShmTableConfig& bad) {
  ScopedSegment seg(unique_name("refuse"));
  std::string error;
  EXPECT_EQ(ShmNamedLockTable::create(seg.name, bad, &error), nullptr);
  EXPECT_EQ(error.rfind("invalid config", 0), 0u) << error;

  auto live = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(live, nullptr) << error;
  error.clear();
  EXPECT_EQ(ShmNamedLockTable::attach(seg.name, bad, &error, 100ms), nullptr);
  EXPECT_EQ(error.rfind("invalid config", 0), 0u) << error;
}

TEST(ShmIpcBounds, RefusesNprocsBeyondTheStampPidField) {
  ShmTableConfig cfg = small_config();
  cfg.nprocs = 255;
  expect_refused(cfg);
}

TEST(ShmIpcBounds, RefusesTreeWidthBelowTwo) {
  ShmTableConfig cfg = small_config();
  cfg.tree_width = 1;
  expect_refused(cfg);
}

TEST(ShmIpcBounds, RefusesTreeWidthAboveSixtyFour) {
  ShmTableConfig cfg = small_config();
  cfg.tree_width = 65;
  expect_refused(cfg);
}

TEST(ShmIpcBounds, RefusesStripesBeyondTheEventStripeField) {
  ShmTableConfig cfg = small_config();
  cfg.stripes = kMaxShmStripes * 2;
  expect_refused(cfg);
}

/// Join deaths whose announcement sequence crosses 2^24 — where the stamp
/// kept in LockDesc truncates to 0 — are still told apart: the landed join
/// is completed, the announced-only one compensated.
TEST(ShmIpcBounds, PrejoinDeathsAcrossTheStampWrap) {
  ScopedSegment seg(unique_name("stamp-prejoin"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  auto survivor = table->open_session();
  auto landed = table->open_session();
  auto announced = table->open_session();
  ASSERT_TRUE(survivor && landed && announced);

  ShmStripe& stripe = table->stripe(0);
  stripe.debug_set_announcement_seq(landed->id(), kStampWrap - 1);
  stripe.debug_forge_prejoin_landed(landed->id());
  EXPECT_EQ(ann_seq(stripe.peek_announcement(landed->id())), kStampWrap);
  EXPECT_EQ(stripe.peek_landed(landed->id()), kStampWrap);
  stripe.debug_set_announcement_seq(announced->id(), kStampWrap - 1);
  stripe.debug_forge_prejoin_announced(announced->id());
  EXPECT_EQ(ann_seq(stripe.peek_announcement(announced->id())), kStampWrap);
  ASSERT_EQ(stripe.peek_refcnt(survivor->id()), 1u);

  table->registry().debug_set_os_pid(landed->id(), kForgedDeadPid);
  table->registry().debug_set_os_pid(announced->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 2u);

  EXPECT_EQ(stripe.peek_refcnt(survivor->id()), 0u);
  EXPECT_EQ(table->recovery_stats().zombie_pids, 0u);
  EXPECT_EQ(ring_count(*table, obs::EventKind::kFaCompleted, landed->id()),
            1u);
  EXPECT_EQ(ring_count(*table, obs::EventKind::kFaCompensated,
                       announced->id()),
            1u);
}

/// Cleanup deaths across the stamp wrap: a release that landed with
/// sequence 2^24 (stamp 0) completes forward, one only announced at 2^24
/// reruns — exactly one decrement each, and the stripe still grants.
TEST(ShmIpcBounds, CleanupDeathsAcrossTheStampWrap) {
  ScopedSegment seg(unique_name("stamp-cleanup"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  auto survivor = table->open_session();
  auto released = table->open_session();
  auto announced = table->open_session();
  ASSERT_TRUE(survivor && released && announced);

  ShmStripe& stripe = table->stripe(0);
  // Join at 2^24 - 1, release at 2^24.
  stripe.debug_set_announcement_seq(released->id(), kStampWrap - 2);
  stripe.debug_forge_cleanup_released(released->id());
  EXPECT_EQ(stripe.peek_landed(released->id()), kStampWrap);
  stripe.debug_set_announcement_seq(announced->id(), kStampWrap - 2);
  stripe.debug_forge_cleanup_announced(announced->id());
  EXPECT_EQ(ann_seq(stripe.peek_announcement(announced->id())), kStampWrap);
  ASSERT_EQ(stripe.peek_refcnt(survivor->id()), 1u);

  table->registry().debug_set_os_pid(released->id(), kForgedDeadPid);
  table->registry().debug_set_os_pid(announced->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 2u);

  EXPECT_EQ(stripe.peek_refcnt(survivor->id()), 0u);
  EXPECT_EQ(table->recovery_stats().forced_aborts, 2u);
  EXPECT_EQ(table->recovery_stats().zombie_pids, 0u);
  EXPECT_EQ(
      ring_count(*table, obs::EventKind::kFaCompleted, released->id()), 1u);
  EXPECT_EQ(ring_count(*table, obs::EventKind::kFaCompensated,
                       announced->id()),
            1u);

  std::uint64_t key = 0;
  while (table->stripe_of(key) != 0) ++key;
  EXPECT_TRUE(survivor->try_acquire_for(key, 2s).has_value());
}

/// The recovery seqlock's 32-bit sequence at its top value: one sweep
/// claims the free lock, and the release wraps the epoch to 0 with the
/// claim free again, so the next sweep claims it too.
TEST(ShmIpcBounds, RecoverySeqlockWrapsWithoutWedging) {
  ScopedSegment seg(unique_name("seqlock"));
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  auto survivor = table->open_session();
  ASSERT_TRUE(survivor);

  ShmStripe& stripe = table->stripe(0);
  stripe.debug_poke_recovery(std::uint64_t{0xFFFF'FFFF} << 32);
  ASSERT_EQ(stripe.recovery_epoch(survivor->id()), 0xFFFF'FFFFu);

  for (const std::uint64_t epoch : {0u, 1u}) {
    auto victim = table->open_session();
    ASSERT_TRUE(victim);
    table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
    EXPECT_EQ(survivor->recover_dead(), 1u);
    EXPECT_EQ(stripe.recovery_epoch(survivor->id()), epoch);
  }

  std::uint64_t key = 0;
  while (table->stripe_of(key) != 0) ++key;
  EXPECT_TRUE(survivor->try_acquire_for(key, 2s).has_value());
}

}  // namespace
}  // namespace aml::ipc
