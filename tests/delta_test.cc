#include "ivm/delta.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace procsim::ivm {
namespace {

using rel::Tuple;
using rel::Value;

Tuple Row(int64_t v) { return Tuple({Value(v)}); }

// A_net and D_net, with multiplicity.
std::vector<Tuple> NetInserts(const DeltaSet& delta) {
  std::vector<Tuple> inserts;
  delta.NetRows(&inserts, nullptr);
  return inserts;
}
std::vector<Tuple> NetDeletes(const DeltaSet& delta) {
  std::vector<Tuple> deletes;
  delta.NetRows(nullptr, &deletes);
  return deletes;
}

TEST(DeltaSetTest, EmptyByDefault) {
  DeltaSet delta;
  EXPECT_TRUE(delta.empty());
  EXPECT_TRUE(NetInserts(delta).empty());
  EXPECT_TRUE(NetDeletes(delta).empty());
  EXPECT_EQ(delta.TotalNetSize(), 0u);
}

TEST(DeltaSetTest, InsertsAndDeletesSeparate) {
  DeltaSet delta;
  delta.AddInsert(Row(1));
  delta.AddDelete(Row(2));
  EXPECT_EQ(NetInserts(delta), std::vector<Tuple>{Row(1)});
  EXPECT_EQ(NetDeletes(delta), std::vector<Tuple>{Row(2)});
  EXPECT_EQ(delta.TotalNetSize(), 2u);
}

TEST(DeltaSetTest, InsertThenDeleteCancels) {
  DeltaSet delta;
  delta.AddInsert(Row(1));
  delta.AddDelete(Row(1));
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaSetTest, DeleteThenInsertCancels) {
  // A tuple removed and re-added within one transaction has no net effect —
  // the A_net/D_net semantics of [BLT86].
  DeltaSet delta;
  delta.AddDelete(Row(5));
  delta.AddInsert(Row(5));
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaSetTest, MultiplicityPreserved) {
  DeltaSet delta;
  delta.AddInsert(Row(1));
  delta.AddInsert(Row(1));
  delta.AddInsert(Row(1));
  delta.AddDelete(Row(1));
  EXPECT_EQ(NetInserts(delta).size(), 2u);
  EXPECT_EQ(delta.TotalNetSize(), 2u);
}

TEST(DeltaSetTest, ClearResets) {
  DeltaSet delta;
  delta.AddInsert(Row(1));
  delta.Clear();
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaSetTest, NetRowsMatchReferenceCount) {
  // NetRows must hold exactly the stream's net inserts and net deletes,
  // with multiplicity, against an independently kept reference count.
  Rng rng(17);
  DeltaSet delta;
  std::map<std::string, long> reference;
  for (int i = 0; i < 200; ++i) {
    const Tuple tuple({Value(static_cast<int64_t>(rng.Next() % 10)),
                       Value(static_cast<int64_t>(rng.Next() % 10))});
    if (rng.Next() % 2 == 0) {
      delta.AddInsert(tuple);
      ++reference[tuple.ToString()];
    } else {
      delta.AddDelete(tuple);
      --reference[tuple.ToString()];
    }
  }
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
  delta.NetRows(&inserts, &deletes);
  std::map<std::string, long> net;
  for (const Tuple& tuple : inserts) ++net[tuple.ToString()];
  for (const Tuple& tuple : deletes) --net[tuple.ToString()];
  std::erase_if(reference, [](const auto& entry) { return entry.second == 0; });
  EXPECT_EQ(net, reference);
  EXPECT_EQ(inserts.size() + deletes.size(), delta.TotalNetSize());

  // Either side may be skipped, and the other comes out in the same order.
  EXPECT_EQ(NetInserts(delta), inserts);
  EXPECT_EQ(NetDeletes(delta), deletes);
}

TEST(ChangeBatchTest, PreservesOrder) {
  ChangeBatch changes;
  const Tuple old_row({Value(int64_t{1}), Value(int64_t{1})});
  const Tuple new_row({Value(int64_t{1}), Value(int64_t{2})});
  changes.AddDelete(old_row);
  changes.AddInsert(new_row);
  changes.AddDelete(new_row);
  changes.AddInsert(old_row);

  ASSERT_EQ(changes.size(), 4u);
  EXPECT_FALSE(changes.is_insert(0));
  EXPECT_TRUE(changes.is_insert(1));
  EXPECT_FALSE(changes.is_insert(2));
  EXPECT_TRUE(changes.is_insert(3));
  EXPECT_EQ(changes.RowAt(0), old_row);
  EXPECT_EQ(changes.RowAt(1), new_row);
  EXPECT_EQ(changes.RowAt(2), new_row);
  EXPECT_EQ(changes.RowAt(3), old_row);

  changes.Clear();
  EXPECT_TRUE(changes.empty());
}

}  // namespace
}  // namespace procsim::ivm
