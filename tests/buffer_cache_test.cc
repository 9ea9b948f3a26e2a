#include "storage/buffer_cache.h"

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "util/rng.h"

namespace procsim::storage {
namespace {

TEST(BufferCacheTest, MissThenHit) {
  BufferCache cache(2);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BufferCacheTest, LruEviction) {
  BufferCache cache(2);
  (void)cache.Touch(1);
  (void)cache.Touch(2);
  (void)cache.Touch(1);  // 1 is now most recent
  (void)cache.Touch(3);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(BufferCacheTest, SizeNeverExceedsCapacity) {
  BufferCache cache(8);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    (void)cache.Touch(static_cast<uint32_t>(rng.Uniform(64)));
    EXPECT_LE(cache.size(), 8u);
  }
}

TEST(DiskBufferCacheTest, ResidentReadsAreFree) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  disk.EnableBufferCache(8);
  meter.Reset();
  (void)disk.ReadPage(a);  // miss: charged
  (void)disk.ReadPage(a);  // hit: free
  (void)disk.ReadPage(b);  // miss
  (void)disk.ReadPage(a);  // hit
  EXPECT_EQ(meter.disk_reads(), 2u);
  EXPECT_EQ(disk.buffer_cache()->hits(), 2u);
}

TEST(DiskBufferCacheTest, WritesStayChargedAndMakeResident) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  disk.EnableBufferCache(8);
  meter.Reset();
  (void)disk.MarkDirty(a);  // write-through: charged
  (void)disk.MarkDirty(a);
  EXPECT_EQ(meter.disk_writes(), 2u);
  (void)disk.ReadPage(a);  // resident after the writes
  EXPECT_EQ(meter.disk_reads(), 0u);
}

TEST(DiskBufferCacheTest, TinyCacheThrashes) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  disk.EnableBufferCache(1);
  meter.Reset();
  for (int i = 0; i < 5; ++i) {
    (void)disk.ReadPage(a);
    (void)disk.ReadPage(b);
  }
  EXPECT_EQ(meter.disk_reads(), 10u);  // every access evicts the other page
}

TEST(DiskBufferCacheTest, InteractsWithAccessScopes) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  const PageId a = disk.AllocatePage();
  disk.EnableBufferCache(8);
  meter.Reset();
  {
    AccessScope scope(&disk);
    (void)disk.ReadPage(a);  // scope miss + cache miss: charged
    (void)disk.ReadPage(a);  // scope dedup: not even a cache touch
  }
  EXPECT_EQ(meter.disk_reads(), 1u);
  EXPECT_EQ(disk.buffer_cache()->misses(), 1u);
  {
    AccessScope scope(&disk);
    (void)disk.ReadPage(a);  // new scope, but page resident: free
  }
  EXPECT_EQ(meter.disk_reads(), 1u);
}

}  // namespace
}  // namespace procsim::storage
