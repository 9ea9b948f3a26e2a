#include "proc/ilock.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace procsim::proc {
namespace {

using rel::Tuple;
using rel::Value;

Tuple Row(int64_t key) { return Tuple({Value(key)}); }

TEST(ILockTableTest, IntervalConflictDetection) {
  ILockTable locks;
  locks.AddIntervalLock(/*owner=*/1, "R1", /*column=*/0, 10, 19);
  EXPECT_EQ(locks.FindBroken("R1", Row(15)), std::vector<ProcId>{1});
  EXPECT_TRUE(locks.FindBroken("R1", Row(9)).empty());
  EXPECT_TRUE(locks.FindBroken("R1", Row(20)).empty());
  // Inclusive bounds.
  EXPECT_EQ(locks.FindBroken("R1", Row(10)).size(), 1u);
  EXPECT_EQ(locks.FindBroken("R1", Row(19)).size(), 1u);
}

TEST(ILockTableTest, ValueLockIsDegenerateInterval) {
  ILockTable locks;
  locks.AddValueLock(2, "R2", 0, 7);
  EXPECT_EQ(locks.FindBroken("R2", Row(7)), std::vector<ProcId>{2});
  EXPECT_TRUE(locks.FindBroken("R2", Row(8)).empty());
}

TEST(ILockTableTest, RelationsAreIndependent) {
  ILockTable locks;
  locks.AddIntervalLock(1, "R1", 0, 0, 100);
  EXPECT_TRUE(locks.FindBroken("R2", Row(50)).empty());
  locks.AddIntervalLock(2, "R2", 0, 40, 60);
  EXPECT_EQ(locks.FindBroken("R2", Row(50)), std::vector<ProcId>{2});
  EXPECT_EQ(locks.lock_count(), 2u);
}

TEST(ILockTableTest, MultipleOwnersDeduplicated) {
  ILockTable locks;
  locks.AddIntervalLock(1, "R1", 0, 0, 50);
  locks.AddIntervalLock(1, "R1", 0, 40, 60);  // same owner, overlapping
  locks.AddIntervalLock(2, "R1", 0, 45, 55);
  std::vector<ProcId> broken = locks.FindBroken("R1", Row(45));
  std::sort(broken.begin(), broken.end());
  EXPECT_EQ(broken, (std::vector<ProcId>{1, 2}));
}

TEST(ILockTableTest, ClearLocksDropsOnlyOwner) {
  ILockTable locks;
  locks.AddIntervalLock(1, "R1", 0, 0, 100);
  locks.AddIntervalLock(2, "R1", 0, 0, 100);
  EXPECT_EQ(locks.lock_count(), 2u);
  locks.ClearLocks(1);
  EXPECT_EQ(locks.lock_count(), 1u);
  EXPECT_EQ(locks.FindBroken("R1", Row(10)), std::vector<ProcId>{2});
}

TEST(ILockTableTest, NonIntegerColumnsIgnored) {
  ILockTable locks;
  locks.AddIntervalLock(1, "R1", 0, 0, 100);
  // Tuple whose locked column holds a string cannot break an int interval.
  EXPECT_TRUE(locks.FindBroken("R1", Tuple({Value("abc")})).empty());
  // Column out of range is also safe.
  locks.AddIntervalLock(2, "R1", 5, 0, 100);
  EXPECT_EQ(locks.FindBroken("R1", Row(10)), std::vector<ProcId>{1});
}

}  // namespace
}  // namespace procsim::proc
