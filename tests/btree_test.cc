#include "storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace procsim::storage {
namespace {

RecordId Rid(uint32_t n) { return RecordId{n, 0}; }

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : disk_(4000, &meter_), tree_(&disk_, 20) {}
  CostMeter meter_;
  SimulatedDisk disk_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTreeSearches) {
  EXPECT_TRUE(tree_.Search(42).ValueOrDie().empty());
  EXPECT_EQ(tree_.Height(), 1);
  EXPECT_EQ(tree_.entry_count(), 0u);
}

TEST_F(BTreeTest, InsertAndSearch) {
  ASSERT_TRUE(tree_.Insert(10, Rid(1)).ok());
  ASSERT_TRUE(tree_.Insert(20, Rid(2)).ok());
  ASSERT_TRUE(tree_.Insert(5, Rid(3)).ok());
  EXPECT_EQ(tree_.Search(10).ValueOrDie(), std::vector<RecordId>{Rid(1)});
  EXPECT_EQ(tree_.Search(5).ValueOrDie(), std::vector<RecordId>{Rid(3)});
  EXPECT_TRUE(tree_.Search(15).ValueOrDie().empty());
  EXPECT_EQ(tree_.entry_count(), 3u);
}

TEST_F(BTreeTest, RejectsExactDuplicatePair) {
  ASSERT_TRUE(tree_.Insert(10, Rid(1)).ok());
  EXPECT_EQ(tree_.Insert(10, Rid(1)).code(), StatusCode::kAlreadyExists);
  // Same key, different rid is fine.
  EXPECT_TRUE(tree_.Insert(10, Rid(2)).ok());
  EXPECT_EQ(tree_.Search(10).ValueOrDie().size(), 2u);
}

TEST_F(BTreeTest, FanoutDerivedFromEntryBytes) {
  EXPECT_EQ(tree_.fanout(), 200u);  // 4000 / 20
}

TEST_F(BTreeTest, GrowsInHeightAndStaysValid) {
  // 1000 sequential keys with fanout 200 forces at least one split level.
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_.Insert(i, Rid(static_cast<uint32_t>(i))).ok());
  }
  EXPECT_GE(tree_.Height(), 2);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  for (int64_t i = 0; i < 1000; i += 97) {
    EXPECT_EQ(tree_.Search(i).ValueOrDie(),
              std::vector<RecordId>{Rid(static_cast<uint32_t>(i))});
  }
}

TEST_F(BTreeTest, RangeScanInKeyOrder) {
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        tree_.Insert((i * 37) % 500, Rid(static_cast<uint32_t>(i))).ok());
  }
  std::vector<int64_t> keys;
  ASSERT_TRUE(tree_.RangeScan(100, 199, [&](int64_t key, RecordId) {
    keys.push_back(key);
    return true;
  }).ok());
  EXPECT_EQ(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), 100);
  EXPECT_EQ(keys.back(), 199);
}

TEST_F(BTreeTest, RangeScanEmptyAndInvertedRanges) {
  ASSERT_TRUE(tree_.Insert(5, Rid(1)).ok());
  int count = 0;
  ASSERT_TRUE(tree_.RangeScan(10, 20, [&](int64_t, RecordId) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
  ASSERT_TRUE(tree_.RangeScan(20, 10, [&](int64_t, RecordId) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(BTreeTest, RangeScanStopsEarly) {
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_.Insert(i, Rid(static_cast<uint32_t>(i))).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_.RangeScan(0, 49, [&](int64_t, RecordId) {
    return ++count < 7;
  }).ok());
  EXPECT_EQ(count, 7);
}

TEST_F(BTreeTest, DeleteRemovesSpecificEntry) {
  ASSERT_TRUE(tree_.Insert(10, Rid(1)).ok());
  ASSERT_TRUE(tree_.Insert(10, Rid(2)).ok());
  ASSERT_TRUE(tree_.Delete(10, Rid(1)).ok());
  EXPECT_EQ(tree_.Search(10).ValueOrDie(), std::vector<RecordId>{Rid(2)});
  EXPECT_EQ(tree_.Delete(10, Rid(1)).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_.Delete(99, Rid(5)).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, HeavyDuplicateKeysSpanLeaves) {
  // More duplicates of one key than fit in a single leaf.
  for (uint32_t i = 0; i < 450; ++i) {
    ASSERT_TRUE(tree_.Insert(7, Rid(i)).ok());
  }
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  EXPECT_EQ(tree_.Search(7).ValueOrDie().size(), 450u);
  // Delete a duplicate that lives in a later leaf.
  ASSERT_TRUE(tree_.Delete(7, Rid(449)).ok());
  EXPECT_EQ(tree_.Search(7).ValueOrDie().size(), 449u);
}

TEST_F(BTreeTest, HeightMatchesAnalyticModelAtPaperScale) {
  // The analytic model assumes H1 = ceil(log_200 N); verify for N = 50000
  // (kept below the default 100000 to bound test time).
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  disk.set_metering_enabled(false);
  BTree tree(&disk, 20);
  for (int64_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rid(static_cast<uint32_t>(i))).ok());
  }
  EXPECT_EQ(tree.Height(), 3);  // ceil(log_200 50000) = 3
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

// One key whose run of duplicates spans at least three leaves.  Inserts land
// in the leftmost candidate leaf, so with ascending rids the run is ordered
// by rid only within each leaf; with descending rids every insert goes to
// the front of the leftmost leaf.  Either way an in-leaf binary search must
// still find every pair, which the leaf-chain walk guarantees.
struct DuplicateRunCase {
  uint32_t page_size;
  bool descending;
};

void PrintTo(const DuplicateRunCase& c, std::ostream* out) {
  *out << c.page_size << "-byte pages, "
       << (c.descending ? "descending" : "ascending") << " rids";
}

class BTreeDuplicateRunTest
    : public ::testing::TestWithParam<DuplicateRunCase> {};

TEST_P(BTreeDuplicateRunTest, EveryPairIsFoundAcrossLeaves) {
  CostMeter meter;
  SimulatedDisk disk(GetParam().page_size, &meter);
  disk.set_metering_enabled(false);
  BTree tree(&disk, 20);
  // More than two full leaves' worth of one key: at least three leaves.
  const uint32_t count = 2 * tree.fanout() + tree.fanout() / 2;
  constexpr int64_t kKey = 7;
  std::vector<RecordId> rids;
  for (uint32_t i = 0; i < count; ++i) {
    rids.push_back(Rid(GetParam().descending ? count - 1 - i : i));
  }
  for (std::size_t i = 0; i < rids.size(); ++i) {
    ASSERT_TRUE(tree.Insert(kKey, rids[i]).ok()) << "insert " << i;
    ASSERT_EQ(tree.entry_count(), i + 1);
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "insert " << i;
  }
  ASSERT_GE(tree.Height(), 2);
  EXPECT_EQ(tree.Search(kKey).ValueOrDie().size(), count);

  for (const RecordId& rid : rids) {
    EXPECT_EQ(tree.Insert(kKey, rid).code(), StatusCode::kAlreadyExists)
        << rid.ToString();
  }
  EXPECT_EQ(tree.entry_count(), count);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  // Delete in a scrambled order so removals hit every leaf of the run.
  Rng rng(GetParam().page_size);
  for (std::size_t i = rids.size(); i > 1; --i) {
    std::swap(rids[i - 1], rids[rng.Uniform(i)]);
  }
  for (std::size_t i = 0; i < rids.size(); ++i) {
    ASSERT_TRUE(tree.Delete(kKey, rids[i]).ok()) << rids[i].ToString();
    ASSERT_EQ(tree.entry_count(), count - i - 1);
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "delete " << i;
    EXPECT_EQ(tree.Delete(kKey, rids[i]).code(), StatusCode::kNotFound);
  }
  EXPECT_TRUE(tree.Search(kKey).ValueOrDie().empty());
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndOrders, BTreeDuplicateRunTest,
    ::testing::Values(DuplicateRunCase{1000, true},
                      DuplicateRunCase{1000, false},
                      DuplicateRunCase{4000, true},
                      DuplicateRunCase{4000, false}),
    [](const ::testing::TestParamInfo<DuplicateRunCase>& info) {
      return "Page" + std::to_string(info.param.page_size) +
             (info.param.descending ? "Descending" : "Ascending");
    });

TEST(BTreeNodeSizeTest, FullLeafOfFourteenByteEntriesFitsAPage) {
  // A leaf entry takes 14 bytes on the page (8-byte key, 6-byte rid), so
  // 14-byte index entries give the densest fanout a page can hold.
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  BTree tree(&disk, 14);
  EXPECT_EQ(tree.fanout(), 285u);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rid(static_cast<uint32_t>(i))).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeNodeSizeDeathTest, RejectsFanoutWhoseFullLeafOverflowsThePage) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  // 4000 / 10 = 400 entries would need 9 + 14 * 400 = 5609 bytes.
  EXPECT_DEATH({ BTree tree(&disk, 10); }, "full btree leaf");
  // The minimum fanout of 4 needs 65 bytes, more than a 50-byte page.
  SimulatedDisk tiny(50, &meter);
  EXPECT_DEATH({ BTree tree(&tiny, 20); }, "full btree leaf");
}

// Randomized property test against a reference multimap.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, MatchesReferenceMultimap) {
  CostMeter meter;
  SimulatedDisk disk(1000, &meter);  // small pages -> fanout 50 -> deep trees
  disk.set_metering_enabled(false);
  BTree tree(&disk, 20);
  Rng rng(GetParam());
  std::multimap<int64_t, RecordId> reference;
  for (int step = 0; step < 4000; ++step) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(300));
    if (rng.Bernoulli(0.7)) {
      const RecordId rid = Rid(static_cast<uint32_t>(rng.Uniform(1000)));
      const bool duplicate = [&] {
        auto [begin, end] = reference.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          if (it->second == rid) return true;
        }
        return false;
      }();
      Status st = tree.Insert(key, rid);
      if (duplicate) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        reference.emplace(key, rid);
      }
    } else {
      auto it = reference.find(key);
      if (it != reference.end()) {
        ASSERT_TRUE(tree.Delete(key, it->second).ok());
        reference.erase(it);
      } else {
        EXPECT_EQ(tree.Delete(key, Rid(0)).code(), StatusCode::kNotFound);
      }
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants().ok());
      EXPECT_EQ(tree.entry_count(), reference.size());
      // Spot-check a few keys.
      for (int64_t probe = 0; probe < 300; probe += 37) {
        std::vector<RecordId> expected;
        auto [begin, end] = reference.equal_range(probe);
        for (auto rit = begin; rit != end; ++rit) {
          expected.push_back(rit->second);
        }
        std::sort(expected.begin(), expected.end());
        std::vector<RecordId> actual = tree.Search(probe).ValueOrDie();
        std::sort(actual.begin(), actual.end());
        EXPECT_EQ(actual, expected) << "key " << probe;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BTreeCostTest, DescentChargesHeightReads) {
  CostMeter meter;
  SimulatedDisk disk(4000, &meter);
  disk.set_metering_enabled(false);
  BTree tree(&disk, 20);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rid(static_cast<uint32_t>(i))).ok());
  }
  disk.set_metering_enabled(true);
  meter.Reset();
  (void)tree.Search(500);
  // Search reads one node per level to find the leaf, re-reads the leaf to
  // scan it (deduplicated inside an AccessScope during real queries), and
  // may touch the successor leaf.
  EXPECT_GE(meter.disk_reads(), static_cast<uint64_t>(tree.Height()));
  EXPECT_LE(meter.disk_reads(), static_cast<uint64_t>(tree.Height()) + 2);
  EXPECT_EQ(meter.disk_writes(), 0u);
}

}  // namespace
}  // namespace procsim::storage
