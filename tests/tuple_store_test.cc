#include "ivm/tuple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace procsim::ivm {
namespace {

using rel::Tuple;
using rel::Value;

Tuple Row(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

class TupleStoreTest : public ::testing::Test {
 protected:
  TupleStoreTest() : disk_(4000, &meter_) {}
  CostMeter meter_;
  storage::SimulatedDisk disk_;
};

TEST_F(TupleStoreTest, InsertContainsRemove) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  EXPECT_TRUE(store.Contains(Row(1, 2)));
  EXPECT_FALSE(store.Contains(Row(2, 1)));
  ASSERT_TRUE(store.Remove(Row(1, 2)).ok());
  EXPECT_FALSE(store.Contains(Row(1, 2)));
  EXPECT_EQ(store.Remove(Row(1, 2)).code(), StatusCode::kNotFound);
}

TEST_F(TupleStoreTest, BagSemanticsForDuplicates) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.Remove(Row(1, 1)).ok());
  EXPECT_TRUE(store.Contains(Row(1, 1)));  // one instance left
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(TupleStoreTest, ReadAllReturnsEverythingAndChargesPerPage) {
  TupleStore store(&disk_, 100);
  {
    storage::MeteringGuard unmetered(&disk_);
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.Insert(Row(i, i)).ok());
    }
  }
  meter_.Reset();
  auto all = store.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().size(), 100u);
  EXPECT_EQ(meter_.disk_reads(), 3u);  // 100 padded tuples, 40/page
  EXPECT_EQ(store.page_count(), 3u);
}

TEST_F(TupleStoreTest, ProbeIndexOnDemand) {
  TupleStore store(&disk_, 100);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Insert(Row(i % 4, i)).ok());
  }
  // Index built after data exists; must backfill.
  store.EnsureProbeIndex(0);
  auto matches = store.ProbeEqual(0, 2);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.ValueOrDie().size(), 5u);
  for (const Tuple& t : matches.ValueOrDie()) {
    EXPECT_EQ(t.value(0).AsInt64(), 2);
  }
  // Index maintained by later mutations.
  ASSERT_TRUE(store.Insert(Row(2, 99)).ok());
  ASSERT_TRUE(store.Remove(Row(2, 2)).ok());
  EXPECT_EQ(store.ProbeEqual(0, 2).ValueOrDie().size(), 5u);
}

TEST_F(TupleStoreTest, ProbeWithoutIndexFails) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  EXPECT_EQ(store.ProbeEqual(0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TupleStoreTest, MultipleProbeIndexesCoexist) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(0);
  store.EnsureProbeIndex(1);
  ASSERT_TRUE(store.Insert(Row(1, 10)).ok());
  ASSERT_TRUE(store.Insert(Row(2, 10)).ok());
  EXPECT_EQ(store.ProbeEqual(0, 1).ValueOrDie().size(), 1u);
  EXPECT_EQ(store.ProbeEqual(1, 10).ValueOrDie().size(), 2u);
}

TEST_F(TupleStoreTest, RebuildChargesReadModifyWrite) {
  TupleStore store(&disk_, 100);
  std::vector<Tuple> eighty;
  for (int64_t i = 0; i < 80; ++i) eighty.push_back(Row(i, i));
  ASSERT_TRUE(store.Rebuild(eighty).ok());  // 2 pages
  meter_.Reset();
  ASSERT_TRUE(store.Rebuild(eighty).ok());
  // Old 2 pages re-read; new 2 pages written (+ allocations/appends charged
  // once per page within the access scope).
  EXPECT_GE(meter_.disk_reads(), 2u);
  EXPECT_GE(meter_.disk_writes(), 2u);
  EXPECT_EQ(store.size(), 80u);
}

TEST_F(TupleStoreTest, RebuildReplacesContents) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(0);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  ASSERT_TRUE(store.Rebuild({Row(2, 2), Row(3, 3)}).ok());
  EXPECT_FALSE(store.Contains(Row(1, 1)));
  EXPECT_TRUE(store.Contains(Row(2, 2)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.ProbeEqual(0, 1).ValueOrDie().size(), 0u);
  EXPECT_EQ(store.ProbeEqual(0, 3).ValueOrDie().size(), 1u);
}

TEST_F(TupleStoreTest, RebuildFreesThePagesItReplaces) {
  const std::size_t before = disk_.live_page_count();
  {
    TupleStore store(&disk_, 100);
    for (int64_t round = 0; round < 100; ++round) {
      std::vector<Tuple> tuples;
      for (int64_t i = 0; i < 40 + round % 50; ++i) {
        tuples.push_back(Row(round, i));
      }
      ASSERT_TRUE(store.Rebuild(tuples).ok());
    }
    ASSERT_GT(store.page_count(), 1u);
    EXPECT_EQ(disk_.live_page_count(), before + store.page_count());
    EXPECT_GT(disk_.page_count(), disk_.live_page_count());  // ids retired
    EXPECT_TRUE(store.CheckConsistency().ok());
  }
  EXPECT_EQ(disk_.live_page_count(), before);  // the destructor frees too
}

TEST_F(TupleStoreTest, SnapshotIsUnmetered) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  meter_.Reset();
  auto snapshot = store.SnapshotForTesting();
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
}

TEST_F(TupleStoreTest, LookupsReadPagesUnmetered) {
  TupleStore store(&disk_, 100);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Insert(Row(i, i)).ok());
  }
  meter_.Reset();
  {
    storage::AccessScope scope(&disk_);
    ASSERT_TRUE(store.ReadAll().ok());
  }
  const uint64_t read_all_alone = meter_.disk_reads();
  ASSERT_EQ(read_all_alone, 3u);

  // Contains decodes a record from the last page without a charge, and
  // that read must not enter the scope's dedup set either: ReadAll still
  // pays for every page.
  meter_.Reset();
  {
    storage::AccessScope scope(&disk_);
    EXPECT_TRUE(store.Contains(Row(90, 90)));
    EXPECT_FALSE(store.Contains(Row(90, 91)));
    EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
    ASSERT_TRUE(store.ReadAll().ok());
  }
  EXPECT_EQ(meter_.disk_reads(), read_all_alone);

  // Remove pays for the record's page (read, write) and nothing for the
  // lookup that found it.
  meter_.Reset();
  ASSERT_TRUE(store.Remove(Row(90, 90)).ok());
  EXPECT_EQ(meter_.disk_reads(), 1u);
  EXPECT_EQ(meter_.disk_writes(), 1u);
}

TEST_F(TupleStoreTest, LookupsCompareValuesNotBytes) {
  TupleStore store(&disk_, 100);
  const Tuple plus_zero({Value(0.0)});
  const Tuple minus_zero({Value(-0.0)});
  ASSERT_NE(plus_zero.Serialize(), minus_zero.Serialize());
  ASSERT_TRUE(store.Insert(plus_zero).ok());
  EXPECT_TRUE(store.Contains(minus_zero));
  Result<std::vector<Tuple>> before = store.ReadAll();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().size(), 1u);
  EXPECT_FALSE(std::signbit(before.ValueOrDie()[0].value(0).AsDouble()));
  ASSERT_TRUE(store.Remove(minus_zero).ok());
  EXPECT_EQ(store.size(), 0u);

  const Tuple nan_one({Value(std::nan("1"))});
  const Tuple nan_two({Value(std::nan("2"))});
  ASSERT_NE(nan_one.Serialize(), nan_two.Serialize());
  ASSERT_TRUE(store.Insert(nan_one).ok());
  EXPECT_TRUE(store.Contains(nan_two));
  ASSERT_TRUE(store.Remove(nan_two).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST_F(TupleStoreTest, PageHoldsTheOnlyCopy) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  ASSERT_EQ(disk_.page_count(), 1u);

  // Overwrite the record in place with a different tuple of the same size.
  const std::vector<uint8_t> bytes = Row(7, 8).Serialize();
  Result<storage::Page*> page = disk_.ReadPage(0);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(page.ValueOrDie()
                  ->Update(0, bytes.data(), static_cast<uint32_t>(bytes.size()),
                           100)
                  .ok());

  const std::vector<Tuple> snapshot = store.SnapshotForTesting();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0], Row(7, 8));
  EXPECT_FALSE(store.Contains(Row(1, 2)));
  const Status consistency = store.CheckConsistency();
  EXPECT_EQ(consistency.code(), StatusCode::kInternal);
  EXPECT_NE(consistency.ToString().find("does not hash to its tuple map key"),
            std::string::npos)
      << consistency.ToString();
}

}  // namespace
}  // namespace procsim::ivm
