// The paper analyzes 2-way and 3-way joins; the implementation generalizes
// to arbitrary right-deep join chains.  These tests pin the 4-way case for
// both the executor and the Rete network, and the error paths of the
// right-deep builder.
#include <gtest/gtest.h>

#include <algorithm>

#include "ivm/delta.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "rete/network.h"
#include "util/rng.h"

namespace procsim {
namespace {

using rel::Conjunction;
using rel::JoinStage;
using rel::ProcedureQuery;
using rel::Tuple;
using rel::Value;

std::vector<std::string> Canon(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// One modification (delete old, insert new) through the network's only
// entry point.
Status ReteUpdate(rete::ReteNetwork* network, const std::string& relation,
                  const Tuple& old_tuple, const Tuple& new_tuple) {
  ivm::ChangeBatch changes;
  changes.AddDelete(old_tuple);
  changes.AddInsert(new_tuple);
  return network->OnChanges(relation, changes);
}

class MultiwayTest : public ::testing::Test {
 protected:
  MultiwayTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
    // A -> B -> C -> D chain: each relation's second column keys into the
    // next relation's hashed first column.
    auto make = [&](const std::string& name, bool btree,
                    std::size_t columns) {
      rel::Relation::Options options;
      options.tuple_width_bytes = 100;
      if (btree) {
        options.btree_column = 0;
      } else {
        options.hash_column = 0;
      }
      std::vector<rel::Column> schema;
      for (std::size_t c = 0; c < columns; ++c) {
        schema.push_back(rel::Column{name + "_c" + std::to_string(c),
                                     rel::ValueType::kInt64});
      }
      return catalog_.CreateRelation(name, rel::Schema(schema), options)
          .ValueOrDie();
    };
    a_ = make("A", /*btree=*/true, 2);
    b_ = make("B", false, 2);
    c_ = make("C", false, 2);
    d_ = make("D", false, 2);
    Rng rng(12);
    for (int64_t i = 0; i < 40; ++i) {
      a_rids_.push_back(
          a_->Insert(Tuple({Value(i),
                            Value(static_cast<int64_t>(rng.Uniform(8)))}))
              .ValueOrDie());
    }
    for (int64_t i = 0; i < 8; ++i) {
      (void)b_->Insert(Tuple({Value(i), Value(i % 4)}));
    }
    for (int64_t i = 0; i < 4; ++i) {
      (void)c_->Insert(Tuple({Value(i), Value(i % 2)}));
    }
    for (int64_t i = 0; i < 2; ++i) {
      (void)d_->Insert(Tuple({Value(i), Value(i * 111)}));
    }
  }

  ProcedureQuery FourWay(int64_t lo, int64_t hi) {
    ProcedureQuery query;
    query.base = rel::BaseSelection{"A", lo, hi, Conjunction{}};
    // A.c1 -> B; B.c1 (position 3 in A++B) -> C; C.c1 (position 5) -> D.
    query.joins.push_back(JoinStage{"B", 1, Conjunction{}});
    query.joins.push_back(JoinStage{"C", 3, Conjunction{}});
    query.joins.push_back(JoinStage{"D", 5, Conjunction{}});
    return query;
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  rel::Relation* a_ = nullptr;
  rel::Relation* b_ = nullptr;
  rel::Relation* c_ = nullptr;
  rel::Relation* d_ = nullptr;
  std::vector<storage::RecordId> a_rids_;
};

TEST_F(MultiwayTest, ExecutorRunsFourWayChain) {
  auto result = executor_.Execute(FourWay(0, 39));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().size(), 40u);  // every A row joins through
  for (const Tuple& row : result.ValueOrDie()) {
    ASSERT_EQ(row.arity(), 8u);
    EXPECT_EQ(row.value(1).AsInt64(), row.value(2).AsInt64());
    EXPECT_EQ(row.value(3).AsInt64(), row.value(4).AsInt64());
    EXPECT_EQ(row.value(5).AsInt64(), row.value(6).AsInt64());
  }
}

TEST_F(MultiwayTest, ReteBuildsRightDeepFourWayAndMaintainsIt) {
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  auto memory = network.AddProcedure(FourWay(10, 29));
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  // 4 selections, 3 and-nodes, 3 β-memories (D⋈ nothing is α; C⋈D, B⋈(C⋈D),
  // result).
  EXPECT_EQ(network.stats().tconst_nodes, 4u);
  EXPECT_EQ(network.stats().and_nodes, 3u);
  EXPECT_EQ(network.stats().beta_memories, 3u);
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(FourWay(10, 29)).ValueOrDie()));

  // Maintain under updates.
  Rng rng(3);
  for (int step = 0; step < 60; ++step) {
    const std::size_t pick = rng.Uniform(a_rids_.size());
    const Tuple old_tuple = a_->Read(a_rids_[pick]).ValueOrDie();
    const Tuple new_tuple({Value(static_cast<int64_t>(rng.Uniform(40))),
                           Value(static_cast<int64_t>(rng.Uniform(8)))});
    ASSERT_TRUE(a_->UpdateInPlace(a_rids_[pick], new_tuple).ok());
    ASSERT_TRUE(ReteUpdate(&network, "A", old_tuple, new_tuple).ok());
    if (step % 20 == 19) {
      ASSERT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
                Canon(executor_.Execute(FourWay(10, 29)).ValueOrDie()))
          << "diverged at step " << step;
    }
  }
}

TEST_F(MultiwayTest, RightDeepViolationIsRejected) {
  // Stage 2 probes a column of A (position 0) instead of the immediately
  // preceding relation B — legal for the executor (left-deep pipeline) but
  // not expressible right-deep, so the Rete builder must refuse.
  ProcedureQuery bad;
  bad.base = rel::BaseSelection{"A", 0, 39, Conjunction{}};
  bad.joins.push_back(JoinStage{"B", 1, Conjunction{}});
  bad.joins.push_back(JoinStage{"C", 0, Conjunction{}});
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  Result<rete::MemoryNode*> memory = network.AddProcedure(bad);
  EXPECT_FALSE(memory.ok());
  EXPECT_EQ(memory.status().code(), StatusCode::kInvalidArgument);
  // The executor happily runs the same plan left-deep.
  EXPECT_TRUE(executor_.Execute(bad).ok());
}

TEST_F(MultiwayTest, FirstStageMustProbeBaseColumn) {
  ProcedureQuery bad;
  bad.base = rel::BaseSelection{"A", 0, 39, Conjunction{}};
  bad.joins.push_back(JoinStage{"B", 5, Conjunction{}});  // out of A's range
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  EXPECT_FALSE(network.AddProcedure(bad).ok());
}

TEST_F(MultiwayTest, SharedTailAcrossFourWayProcedures) {
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(FourWay(0, 9)).ok());
  const auto before = network.stats();
  ASSERT_TRUE(network.AddProcedure(FourWay(20, 29)).ok());
  // The whole B⋈C⋈D tail is shared: only one new t-const (the base
  // selection), one new and-node and one new result β-memory.
  EXPECT_EQ(network.stats().tconst_nodes, before.tconst_nodes + 1);
  EXPECT_EQ(network.stats().and_nodes, before.and_nodes + 1);
  EXPECT_EQ(network.stats().beta_memories, before.beta_memories + 1);
}

}  // namespace
}  // namespace procsim
