#include "relational/relation.h"

#include <gtest/gtest.h>

#include <set>

#include "relational/catalog.h"

namespace procsim::rel {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  RelationTest() : disk_(4000, &meter_), catalog_(&disk_) {}

  Relation* MakeIndexed() {
    Relation::Options options;
    options.tuple_width_bytes = 100;
    options.btree_column = 0;
    options.hash_column = 1;
    options.expected_tuples = 1000;
    Schema schema({Column{"key", ValueType::kInt64},
                   Column{"join", ValueType::kInt64},
                   Column{"payload", ValueType::kInt64}});
    return catalog_.CreateRelation("T", schema, options).ValueOrDie();
  }

  static Tuple Row(int64_t key, int64_t join, int64_t payload = 0) {
    return Tuple({Value(key), Value(join), Value(payload)});
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  Catalog catalog_;
};

TEST_F(RelationTest, InsertReadRoundTrip) {
  Relation* t = MakeIndexed();
  storage::RecordId rid = t->Insert(Row(1, 2, 3)).ValueOrDie();
  EXPECT_TRUE(t->Read(rid).ValueOrDie() == Row(1, 2, 3));
  EXPECT_EQ(t->tuple_count(), 1u);
}

TEST_F(RelationTest, BTreeRangeReturnsKeyOrderedMatches) {
  Relation* t = MakeIndexed();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Insert(Row(i, i % 10)).ok());
  }
  std::vector<int64_t> keys;
  ASSERT_TRUE(t->BTreeRange(20, 29, [&](storage::RecordId, const Tuple& row) {
    keys.push_back(row.value(0).AsInt64());
    return true;
  }).ok());
  ASSERT_EQ(keys.size(), 10u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], 20 + static_cast<int64_t>(i));
  }
}

TEST_F(RelationTest, HashProbeFindsAllMatches) {
  Relation* t = MakeIndexed();
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(t->Insert(Row(i, i % 3)).ok());
  }
  EXPECT_EQ(t->HashProbe(1).ValueOrDie().size(), 10u);
  EXPECT_TRUE(t->HashProbe(99).ValueOrDie().empty());
}

TEST_F(RelationTest, UpdateInPlaceMaintainsIndexes) {
  Relation* t = MakeIndexed();
  storage::RecordId rid = t->Insert(Row(5, 50)).ValueOrDie();
  ASSERT_TRUE(t->UpdateInPlace(rid, Row(6, 60)).ok());
  // Old keys gone from both indexes.
  int count = 0;
  ASSERT_TRUE(t->BTreeRange(5, 5, [&](storage::RecordId, const Tuple&) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
  EXPECT_TRUE(t->HashProbe(50).ValueOrDie().empty());
  // New keys present.
  ASSERT_TRUE(t->BTreeRange(6, 6, [&](storage::RecordId, const Tuple& row) {
    EXPECT_TRUE(row == Row(6, 60));
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(t->HashProbe(60).ValueOrDie().size(), 1u);
}

TEST_F(RelationTest, DeleteRemovesFromIndexes) {
  Relation* t = MakeIndexed();
  storage::RecordId rid = t->Insert(Row(5, 50)).ValueOrDie();
  ASSERT_TRUE(t->Delete(rid).ok());
  EXPECT_EQ(t->tuple_count(), 0u);
  EXPECT_TRUE(t->HashProbe(50).ValueOrDie().empty());
  EXPECT_FALSE(t->Read(rid).ok());
}

TEST_F(RelationTest, ScanVisitsEverything) {
  Relation* t = MakeIndexed();
  for (int64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(t->Insert(Row(i, i)).ok());
  }
  std::set<int64_t> seen;
  ASSERT_TRUE(t->Scan([&](storage::RecordId, const Tuple& row) {
    seen.insert(row.value(0).AsInt64());
    return true;
  }).ok());
  EXPECT_EQ(seen.size(), 25u);
}

TEST_F(RelationTest, BTreeRangeWithoutIndexFails) {
  Relation::Options options;
  Schema schema({Column{"x", ValueType::kInt64}});
  Relation* t = catalog_.CreateRelation("U", schema, options).ValueOrDie();
  EXPECT_FALSE(t->BTreeRange(0, 1, [](storage::RecordId, const Tuple&) {
    return true;
  }).ok());
  EXPECT_FALSE(t->HashProbe(0).ok());
}

TEST_F(RelationTest, CatalogDuplicateAndLookup) {
  MakeIndexed();
  Relation::Options options;
  Schema schema({Column{"x", ValueType::kInt64}});
  EXPECT_EQ(catalog_.CreateRelation("T", schema, options).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog_.GetRelation("T").ok());
  EXPECT_EQ(catalog_.GetRelation("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.RelationNames(), std::vector<std::string>{"T"});
}

TEST_F(RelationTest, ClusteredLoadSpansExpectedPages) {
  // 100-byte tuples, 4000-byte pages: 200 tuples -> 5 heap pages.
  Relation* t = MakeIndexed();
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t->Insert(Row(i, i)).ok());
  }
  EXPECT_EQ(t->heap_page_count(), 5u);
}

TEST_F(RelationTest, RangeScanChargesClusteredPageCount) {
  Relation* t = MakeIndexed();
  {
    storage::MeteringGuard unmetered(&disk_);
    for (int64_t i = 0; i < 400; ++i) {
      ASSERT_TRUE(t->Insert(Row(i, i)).ok());
    }
  }
  meter_.Reset();
  {
    storage::AccessScope scope(&disk_);
    int count = 0;
    ASSERT_TRUE(t->BTreeRange(0, 79, [&](storage::RecordId, const Tuple&) {
      ++count;
      return true;
    }).ok());
    EXPECT_EQ(count, 80);
  }
  // 80 clustered tuples = 2 data pages, plus B-tree descent/leaf pages.
  // Height is 2 at 400 entries (fanout 200); allow a small leaf-chain
  // allowance but require the data-page count to stay clustered.
  EXPECT_LE(meter_.disk_reads(), 2u + 4u);
  EXPECT_GE(meter_.disk_reads(), 2u + 2u);
}

}  // namespace
}  // namespace procsim::rel
