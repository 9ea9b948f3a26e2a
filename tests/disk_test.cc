#include "storage/disk.h"

#include <gtest/gtest.h>

namespace procsim::storage {
namespace {

TEST(SimulatedDiskTest, AllocationAndReadCharging) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId page = disk.AllocatePage();
  EXPECT_EQ(meter.disk_writes(), 1u);
  ASSERT_TRUE(disk.ReadPage(page).ok());
  EXPECT_EQ(meter.disk_reads(), 1u);
  EXPECT_DOUBLE_EQ(meter.total_ms(), 60.0);  // default C2 = 30 ms each
}

TEST(SimulatedDiskTest, MissingPageIsNotFound) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  EXPECT_EQ(disk.ReadPage(5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.MarkDirty(5).code(), StatusCode::kNotFound);
}

TEST(SimulatedDiskTest, MeteringCanBeDisabled) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  disk.set_metering_enabled(false);
  const PageId page = disk.AllocatePage();
  (void)disk.ReadPage(page);
  (void)disk.MarkDirty(page);
  EXPECT_DOUBLE_EQ(meter.total_ms(), 0.0);
  disk.set_metering_enabled(true);
  (void)disk.ReadPage(page);
  EXPECT_EQ(meter.disk_reads(), 1u);
}

TEST(SimulatedDiskTest, MeteringGuardRestoresState) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  {
    MeteringGuard guard(&disk);
    EXPECT_FALSE(disk.metering_enabled());
    {
      MeteringGuard nested(&disk);
      EXPECT_FALSE(disk.metering_enabled());
    }
    EXPECT_FALSE(disk.metering_enabled());
  }
  EXPECT_TRUE(disk.metering_enabled());
}

TEST(SimulatedDiskTest, AccessScopeDeduplicatesCharges) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  meter.Reset();
  {
    AccessScope scope(&disk);
    (void)disk.ReadPage(a);
    (void)disk.ReadPage(a);
    (void)disk.ReadPage(b);
    (void)disk.MarkDirty(a);
    (void)disk.MarkDirty(a);
  }
  EXPECT_EQ(meter.disk_reads(), 2u);   // a charged once, b once
  EXPECT_EQ(meter.disk_writes(), 1u);  // a's write charged once
  // Outside the scope, charges resume per access.
  (void)disk.ReadPage(a);
  (void)disk.ReadPage(a);
  EXPECT_EQ(meter.disk_reads(), 4u);
}

TEST(SimulatedDiskTest, NestedAccessScopesCollapse) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  meter.Reset();
  {
    AccessScope outer(&disk);
    (void)disk.ReadPage(a);
    {
      AccessScope inner(&disk);  // no-op: outer scope already open
      (void)disk.ReadPage(a);
    }
    (void)disk.ReadPage(a);
  }
  EXPECT_EQ(meter.disk_reads(), 1u);
}

TEST(SimulatedDiskTest, PagePersistenceAcrossReads) {
  CostMeter meter;
  SimulatedDisk disk(128, &meter);
  const PageId page = disk.AllocatePage();
  std::vector<uint8_t> record{1, 2, 3};
  {
    Result<Page*> p = disk.ReadPage(page);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.ValueOrDie()->Insert(record.data(), record.size()).ok());
    ASSERT_TRUE(disk.MarkDirty(page).ok());
  }
  Result<Page*> p = disk.ReadPage(page);
  ASSERT_TRUE(p.ok());
  const ByteView stored = p.ValueOrDie()->View(0).ValueOrDie();
  EXPECT_EQ(std::vector<uint8_t>(stored.begin(), stored.end()), record);
}

}  // namespace
}  // namespace procsim::storage
