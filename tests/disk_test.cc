#include "storage/disk.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

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

TEST(SimulatedDiskTest, IdsCrossChunkBoundaries) {
  SimulatedDisk disk(100, /*meter=*/nullptr);
  // Chunk 0 holds ids [0, F), chunk 1 [F, 3F), chunk 2 [3F, 7F).
  const auto first = static_cast<PageId>(SimulatedDisk::kFirstChunkPages);
  const std::size_t count = 3 * std::size_t{first} + 2;
  // Each page stores its own id, so two ids sharing a slot would show.
  for (std::size_t i = 0; i < count; ++i) {
    const PageId id = disk.AllocatePage();
    ASSERT_EQ(id, static_cast<PageId>(i));
    Result<Page*> page = disk.ReadPage(id);
    ASSERT_TRUE(page.ok()) << id;
    ASSERT_TRUE(page.ValueOrDie()
                    ->Insert(reinterpret_cast<const uint8_t*>(&id), sizeof(id))
                    .ok());
    ASSERT_TRUE(disk.MarkDirty(id).ok());
  }
  EXPECT_EQ(disk.page_count(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<PageId>(i);
    Result<Page*> page = disk.ReadPage(id);
    ASSERT_TRUE(page.ok()) << id;
    const ByteView bytes = page.ValueOrDie()->View(0).ValueOrDie();
    PageId stored = kInvalidPageId;
    ASSERT_EQ(bytes.size(), sizeof(stored));
    std::memcpy(&stored, bytes.data(), sizeof(stored));
    ASSERT_EQ(stored, id);
  }
  // Freeing an id leaves its neighbours on either side of each boundary
  // live.
  for (PageId id : {first, 3 * first}) {
    ASSERT_TRUE(disk.FreePage(id).ok());
    EXPECT_FALSE(disk.IsLive(id));
    EXPECT_TRUE(disk.IsLive(id - 1));
    EXPECT_TRUE(disk.IsLive(id + 1));
  }
  EXPECT_EQ(disk.live_page_count(), count - 2);
  // Past the ids handed out, in a chunk not yet allocated, the last id the
  // table covers, and the invalid id.
  for (PageId id : {static_cast<PageId>(count), 7 * first,
                    kInvalidPageId - 1, kInvalidPageId}) {
    EXPECT_FALSE(disk.IsLive(id)) << id;
    EXPECT_EQ(disk.ReadPage(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(disk.MarkDirty(id).code(), StatusCode::kNotFound);
    EXPECT_EQ(disk.FreePage(id).code(), StatusCode::kNotFound);
  }
}

// Lookups take no latch, so they race AllocatePage publishing pages (and
// whole chunks) and FreePage retiring them.  Readers dereference only pages
// no thread frees, as the FreePage contract requires; run under the tsan
// preset, any unpublished or torn read is a reported race.
TEST(ConcurrentDiskTest, LookupsRaceAllocationAndFree) {
  SimulatedDisk disk(64, /*meter=*/nullptr);
  const std::size_t total = SimulatedDisk::kFirstChunkPages + 1000;
  std::atomic<int> readers_started{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> pages_seen{0};
  auto reader = [&] {
    std::size_t seen = 0;
    ++readers_started;
    // One more pass after the writer is done, so a reader the scheduler
    // kept off the CPU until then still reads published pages.
    bool last = false;
    while (!last) {
      last = done.load(std::memory_order_acquire);
      const std::size_t count = disk.page_count();
      for (std::size_t i = count > 64 ? count - 64 : 0; i < count; ++i) {
        const auto id = static_cast<PageId>(i);
        Result<Page*> page = disk.ReadPage(id);
        if (i % 2 == 0) {
          // Even ids are never freed: visible once counted, and whole.
          ASSERT_TRUE(page.ok()) << id;
          ASSERT_EQ(page.ValueOrDie()->page_size(), 64u);
          ASSERT_TRUE(disk.MarkDirty(id).ok());
          ASSERT_TRUE(disk.IsLive(id));
          ++seen;
        } else {
          (void)disk.IsLive(id);
          (void)disk.MarkDirty(id);
        }
      }
    }
    pages_seen += seen;
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);
  while (readers_started.load() < 2) std::this_thread::yield();
  for (std::size_t i = 0; i < total; ++i) {
    const PageId id = disk.AllocatePage();
    if (id % 2 == 1 && id > 1) {
      ASSERT_TRUE(disk.FreePage(id - 2).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();
  EXPECT_GT(pages_seen.load(), 0u);
  EXPECT_EQ(disk.page_count(), total);
  EXPECT_EQ(disk.live_page_count(), total / 2 + 1);
}

}  // namespace
}  // namespace procsim::storage
