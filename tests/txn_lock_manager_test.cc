// The R1 S/X lock: shared coexistence, idempotent re-acquire, in-place
// sole-holder upgrade, grant fairness toward parked older waiters, and the
// upgrade-abort rule that keeps two parked upgraders from deadlocking.
#include "txn/lock_manager.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/status.h"

namespace procsim::txn {
namespace {

uint64_t CounterValue(const char* name) {
  const obs::Counter* counter = obs::GlobalMetrics().FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

/// Spins until `parked` requests have parked since `waits_before` was read.
/// A request bumps txn.lock.waits under the lock's latch just before it
/// parks, so once this returns the waiter is queued for every later grant.
void WaitUntilParked(uint64_t waits_before, uint64_t parked) {
  while (CounterValue("txn.lock.waits") < waits_before + parked) {
    std::this_thread::yield();
  }
}

TEST(TxnLockManagerTest, SharedLocksCoexist) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(3, LockMode::kShared).ok());
  EXPECT_EQ(locks.Held(1), LockMode::kShared);
  EXPECT_EQ(locks.Held(3), LockMode::kShared);
  locks.Release(1);
  EXPECT_EQ(locks.Held(1), std::nullopt);
  EXPECT_EQ(locks.Held(2), LockMode::kShared);
}

TEST(TxnLockManagerTest, ReacquireAtHeldModeIsIdempotent) {
  LockManager locks;
  const uint64_t grants = CounterValue("txn.lock.grants");
  ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
  // X covers both re-requests; S under X stays X.  Neither is a grant.
  ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks.Acquire(1, LockMode::kShared).ok());
  EXPECT_EQ(locks.Held(1), LockMode::kExclusive);
  EXPECT_EQ(CounterValue("txn.lock.grants"), grants + 1);
}

TEST(TxnLockManagerTest, SoleHolderUpgradesInPlace) {
  LockManager locks;
  const uint64_t grants = CounterValue("txn.lock.grants");
  const uint64_t upgrades = CounterValue("txn.lock.upgrades");
  ASSERT_TRUE(locks.Acquire(1, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
  EXPECT_EQ(locks.Held(1), LockMode::kExclusive);
  EXPECT_EQ(CounterValue("txn.lock.grants"), grants + 2);
  EXPECT_EQ(CounterValue("txn.lock.upgrades"), upgrades + 1);
}

TEST(TxnLockManagerTest, YoungerRequesterWaitsForOlderHolder) {
  // A conflicting requester blocks until the holder releases.
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
  const uint64_t waits = CounterValue("txn.lock.waits");
  std::atomic<bool> granted{false};
  std::thread younger([&] {
    ASSERT_TRUE(locks.Acquire(2, LockMode::kShared).ok());
    granted = true;
  });
  WaitUntilParked(waits, 1);
  EXPECT_FALSE(granted);
  locks.Release(1);
  younger.join();
  EXPECT_TRUE(granted);
  EXPECT_EQ(locks.Held(2), LockMode::kShared);
}

TEST(TxnLockManagerTest, NewReadersDoNotOvertakeAParkedOlderWriter) {
  // Fairness: once an older writer is parked, later shared requests queue
  // behind it instead of prolonging its wait.
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(2, LockMode::kShared).ok());
  const uint64_t waits = CounterValue("txn.lock.waits");
  std::atomic<bool> writer_granted{false};
  std::atomic<bool> reader_granted{false};
  std::thread writer([&] {
    ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
    writer_granted = true;
  });
  WaitUntilParked(waits, 1);
  std::thread reader([&] {
    ASSERT_TRUE(locks.Acquire(3, LockMode::kShared).ok());
    reader_granted = true;
  });
  WaitUntilParked(waits, 2);
  EXPECT_FALSE(writer_granted);
  EXPECT_FALSE(reader_granted);  // deferred to the older X waiter
  locks.Release(2);
  writer.join();
  EXPECT_TRUE(writer_granted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(reader_granted);  // now queued behind the writer's hold
  locks.Release(1);
  reader.join();
  EXPECT_EQ(locks.Held(3), LockMode::kShared);
}

TEST(TxnLockManagerTest, HolderUpgradeIsNotDeferredToAParkedWaiter) {
  // The fairness rule must exempt upgrades: the sole S holder upgrading to
  // X past a parked older X waiter cannot starve it (the waiter must
  // outwait the hold regardless) — deferring would deadlock both.
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(2, LockMode::kShared).ok());
  const uint64_t waits = CounterValue("txn.lock.waits");
  std::thread older([&] {
    ASSERT_TRUE(locks.Acquire(1, LockMode::kExclusive).ok());
  });
  WaitUntilParked(waits, 1);
  ASSERT_TRUE(locks.Acquire(2, LockMode::kExclusive).ok());
  EXPECT_EQ(locks.Held(2), LockMode::kExclusive);
  locks.Release(2);
  older.join();
  EXPECT_EQ(locks.Held(1), LockMode::kExclusive);
}

TEST(TxnLockManagerTest, SecondUpgraderAbortsInsteadOfParking) {
  // Two S holders both asking for X would each wait for the other forever:
  // the later upgrader gets Aborted, keeps its S until Release, and its
  // release lets the parked upgrader through.
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, LockMode::kShared).ok());
  const uint64_t waits = CounterValue("txn.lock.waits");
  const uint64_t deadlocks = CounterValue("txn.lock.deadlocks");
  Status first;
  std::thread upgrader([&] { first = locks.Acquire(1, LockMode::kExclusive); });
  WaitUntilParked(waits, 1);
  const Status second = locks.Acquire(2, LockMode::kExclusive);
  EXPECT_EQ(second.code(), StatusCode::kAborted) << second.ToString();
  EXPECT_EQ(CounterValue("txn.lock.deadlocks"), deadlocks + 1);
  EXPECT_EQ(locks.Held(2), LockMode::kShared);
  locks.Release(2);
  upgrader.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(locks.Held(1), LockMode::kExclusive);
}

}  // namespace
}  // namespace procsim::txn
