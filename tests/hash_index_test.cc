#include "storage/hash_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "util/rng.h"

namespace procsim::storage {
namespace {

RecordId Rid(uint32_t n) { return RecordId{n, 0}; }

TEST(HashIndexTest, InsertSearchDelete) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HashIndex index(&disk, 100, 20);
  ASSERT_TRUE(index.Insert(1, Rid(10)).ok());
  ASSERT_TRUE(index.Insert(2, Rid(20)).ok());
  EXPECT_EQ(index.Search(1).ValueOrDie(), std::vector<RecordId>{Rid(10)});
  EXPECT_TRUE(index.Search(3).ValueOrDie().empty());
  ASSERT_TRUE(index.Delete(1, Rid(10)).ok());
  EXPECT_TRUE(index.Search(1).ValueOrDie().empty());
  EXPECT_EQ(index.Delete(1, Rid(10)).code(), StatusCode::kNotFound);
}

TEST(HashIndexTest, DuplicateKeysDifferentRids) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HashIndex index(&disk, 100, 20);
  ASSERT_TRUE(index.Insert(5, Rid(1)).ok());
  ASSERT_TRUE(index.Insert(5, Rid(2)).ok());
  EXPECT_EQ(index.Insert(5, Rid(1)).code(), StatusCode::kAlreadyExists);
  auto found = index.Search(5).ValueOrDie();
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<RecordId>{Rid(1), Rid(2)}));
}

TEST(HashIndexTest, OverflowChainsWork) {
  // Tiny pages -> capacity 20 per bucket.
  SimulatedDisk disk(400, /*meter=*/nullptr);
  HashIndex index(&disk, 10, 20);   // deliberately undersized directory
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(static_cast<int64_t>(i % 7), Rid(i)).ok());
  }
  EXPECT_EQ(index.entry_count(), 500u);
  std::size_t total = 0;
  for (int64_t key = 0; key < 7; ++key) {
    total += index.Search(key).ValueOrDie().size();
  }
  EXPECT_EQ(total, 500u);
  // Delete from an overflow page.
  ASSERT_TRUE(index.Delete(0, Rid(497)).ok());
  EXPECT_EQ(index.entry_count(), 499u);
}

TEST(HashIndexTest, ProbeChargesBucketRead) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  HashIndex index(&disk, 1000, 20);
  {
    MeteringGuard unmetered(&disk);
    for (uint32_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(index.Insert(static_cast<int64_t>(i), Rid(i)).ok());
    }
  }
  meter.Reset();
  (void)index.Search(123);
  // One bucket page read (chains should be empty at 60% fill).
  EXPECT_EQ(meter.disk_reads(), 1u);
  EXPECT_EQ(meter.disk_writes(), 0u);
}

TEST(HashIndexTest, RandomizedAgainstReference) {
  SimulatedDisk disk(2000, /*meter=*/nullptr);
  HashIndex index(&disk, 64, 20);
  Rng rng(77);
  std::multimap<int64_t, RecordId> reference;
  for (int step = 0; step < 3000; ++step) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(100));
    if (rng.Bernoulli(0.65)) {
      const RecordId rid = Rid(static_cast<uint32_t>(rng.Uniform(400)));
      bool duplicate = false;
      auto [begin, end] = reference.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        if (it->second == rid) duplicate = true;
      }
      Status st = index.Insert(key, rid);
      if (duplicate) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(st.ok());
        reference.emplace(key, rid);
      }
    } else {
      auto it = reference.find(key);
      if (it != reference.end()) {
        ASSERT_TRUE(index.Delete(key, it->second).ok());
        reference.erase(it);
      }
    }
    if (step % 500 == 499) {
      EXPECT_EQ(index.entry_count(), reference.size());
      for (int64_t probe = 0; probe < 100; probe += 13) {
        std::vector<RecordId> expected;
        auto [begin, end] = reference.equal_range(probe);
        for (auto rit = begin; rit != end; ++rit) {
          expected.push_back(rit->second);
        }
        std::sort(expected.begin(), expected.end());
        auto actual = index.Search(probe).ValueOrDie();
        std::sort(actual.begin(), actual.end());
        EXPECT_EQ(actual, expected);
      }
    }
  }
}

}  // namespace
}  // namespace procsim::storage
