#include "ivm/delta.h"

#include <gtest/gtest.h>

#include <vector>

namespace procsim::ivm {
namespace {

using rel::Tuple;
using rel::Value;

Tuple Row(int64_t v) { return Tuple({Value(v)}); }

// A_net and D_net, with multiplicity, read through the columnar view.
std::vector<Tuple> NetInserts(const DeltaSet& delta) {
  rel::TupleBatch inserts;
  delta.NetBatches(&inserts, nullptr);
  return inserts.ToRows();
}
std::vector<Tuple> NetDeletes(const DeltaSet& delta) {
  rel::TupleBatch deletes;
  delta.NetBatches(nullptr, &deletes);
  return deletes.ToRows();
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

}  // namespace
}  // namespace procsim::ivm
