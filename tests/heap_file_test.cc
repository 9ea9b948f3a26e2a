#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace procsim::storage {
namespace {

std::vector<uint8_t> FixedRecord(uint8_t fill, std::size_t size = 100) {
  return std::vector<uint8_t>(size, fill);
}

// A record read through HeapFile::Read, copied out of its page view.
std::vector<uint8_t> Copied(const Result<ByteView>& read) {
  const ByteView view = read.ValueOrDie();
  return std::vector<uint8_t>(view.begin(), view.end());
}

TEST(HeapFileTest, InsertReadRoundTrip) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  Result<RecordId> rid = heap.Insert(FixedRecord(7));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(Copied(heap.Read(rid.ValueOrDie())), FixedRecord(7));
  EXPECT_EQ(heap.record_count(), 1u);
}

TEST(HeapFileTest, SpillsToNewPagesAtCapacity) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(FixedRecord(static_cast<uint8_t>(i))).ok());
  }
  // 100 records x 100 bytes at 40/page -> 3 pages.
  EXPECT_EQ(heap.pages().size(), 3u);
  EXPECT_EQ(heap.record_count(), 100u);
}

TEST(HeapFileTest, UpdatePreservesRecordId) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  RecordId rid = heap.Insert(FixedRecord(1)).ValueOrDie();
  ASSERT_TRUE(heap.Update(rid, FixedRecord(2)).ok());
  EXPECT_EQ(Copied(heap.Read(rid)), FixedRecord(2));
}

TEST(HeapFileTest, DeleteMakesRecordUnreachable) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  RecordId rid = heap.Insert(FixedRecord(1)).ValueOrDie();
  ASSERT_TRUE(heap.Delete(rid).ok());
  EXPECT_EQ(heap.Read(rid).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(heap.record_count(), 0u);
}

TEST(HeapFileTest, ScanVisitsAllLiveRecordsOnce) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  std::vector<RecordId> rids;
  for (int i = 0; i < 90; ++i) {
    rids.push_back(heap.Insert(FixedRecord(static_cast<uint8_t>(i))).ValueOrDie());
  }
  ASSERT_TRUE(heap.Delete(rids[10]).ok());
  ASSERT_TRUE(heap.Delete(rids[50]).ok());
  std::set<uint8_t> seen;
  ASSERT_TRUE(heap.Scan([&](RecordId, ByteView bytes) {
    seen.insert(bytes[0]);
    return true;
  }).ok());
  EXPECT_EQ(seen.size(), 88u);
  EXPECT_FALSE(seen.contains(10));
  EXPECT_FALSE(seen.contains(50));
}

TEST(HeapFileTest, ScanChargesOneReadPerPage) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(FixedRecord(0)).ok());
  }
  meter.Reset();
  ASSERT_TRUE(heap.Scan([](RecordId, ByteView) { return true; }).ok());
  EXPECT_EQ(meter.disk_reads(), 3u);  // 3 pages
  EXPECT_EQ(meter.disk_writes(), 0u);
}

TEST(HeapFileTest, ScanStopsEarlyWhenCallbackReturnsFalse) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap.Insert(FixedRecord(static_cast<uint8_t>(i))).ok());
  }
  int visited = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId, ByteView) {
    return ++visited < 4;
  }).ok());
  EXPECT_EQ(visited, 4);
}

TEST(HeapFileTest, SlotReuseAfterDelete) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HeapFile heap(&disk);
  std::vector<RecordId> rids;
  for (int i = 0; i < 40; ++i) {
    rids.push_back(heap.Insert(FixedRecord(1)).ValueOrDie());
  }
  ASSERT_TRUE(heap.Delete(rids[5]).ok());
  // The next insert reuses the freed space on the first page rather than
  // allocating page 2.
  RecordId fresh = heap.Insert(FixedRecord(9)).ValueOrDie();
  EXPECT_EQ(fresh.page_id, rids[5].page_id);
  EXPECT_EQ(heap.pages().size(), 1u);
}

}  // namespace
}  // namespace procsim::storage
