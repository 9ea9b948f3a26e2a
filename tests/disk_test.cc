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
  PageId page;
  {
    MeteringGuard unmetered(&disk);
    page = disk.AllocatePage();
    (void)disk.ReadPage(page);
    (void)disk.MarkDirty(page);
  }
  EXPECT_DOUBLE_EQ(meter.total_ms(), 0.0);
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

TEST(SimulatedDiskTest, FreedIdsAreRetiredNotReused) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(a).ok());
  EXPECT_FALSE(disk.IsLive(a));
  EXPECT_TRUE(disk.IsLive(b));
  EXPECT_EQ(disk.live_page_count(), 1u);
  EXPECT_EQ(disk.page_count(), 2u);
  const PageId c = disk.AllocatePage();
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(disk.live_page_count(), 2u);
  EXPECT_EQ(disk.page_count(), 3u);
  EXPECT_EQ(disk.FreePage(a).code(), StatusCode::kNotFound);  // twice
  EXPECT_EQ(disk.FreePage(99).code(), StatusCode::kNotFound);  // never
}

TEST(SimulatedDiskTest, FreedPageIsNotFound) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId page = disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(page).ok());
  meter.Reset();
  EXPECT_EQ(disk.ReadPage(page).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.MarkDirty(page).code(), StatusCode::kNotFound);
  EXPECT_DOUBLE_EQ(meter.total_ms(), 0.0);  // a failed access charges nothing
}

TEST(SimulatedDiskTest, FreshPageAfterFreeIsChargedInOpenScope) {
  // An access scope charges each page id once.  A page freed inside the
  // scope leaves its id in the scope's sets; the fresh page allocated next
  // has a new id, so it still costs one write and one read.
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId old_page = disk.AllocatePage();
  meter.Reset();
  AccessScope scope(&disk);
  ASSERT_TRUE(disk.ReadPage(old_page).ok());
  ASSERT_TRUE(disk.MarkDirty(old_page).ok());
  ASSERT_TRUE(disk.FreePage(old_page).ok());
  EXPECT_EQ(meter.disk_reads(), 1u);
  EXPECT_EQ(meter.disk_writes(), 1u);
  const PageId fresh = disk.AllocatePage();
  ASSERT_TRUE(disk.ReadPage(fresh).ok());
  ASSERT_TRUE(disk.MarkDirty(fresh).ok());
  EXPECT_EQ(meter.disk_reads(), 2u);
  EXPECT_EQ(meter.disk_writes(), 2u);
}

}  // namespace
}  // namespace procsim::storage
