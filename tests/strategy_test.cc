#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.h"
#include "proc/always_recompute.h"
#include "proc/cache_invalidate.h"
#include "proc/update_cache_avm.h"
#include "proc/update_cache_rvm.h"
#include "relational/catalog.h"
#include "relational/executor.h"

namespace procsim::proc {
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

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
    rel::Relation::Options base_options;
    base_options.tuple_width_bytes = 100;
    base_options.btree_column = 0;
    base_ = catalog_
                .CreateRelation("R1",
                                rel::Schema({{"key", rel::ValueType::kInt64},
                                             {"a", rel::ValueType::kInt64}}),
                                base_options)
                .ValueOrDie();
    rel::Relation::Options inner_options;
    inner_options.tuple_width_bytes = 100;
    inner_options.hash_column = 0;
    inner_ = catalog_
                 .CreateRelation("R2",
                                 rel::Schema({{"b", rel::ValueType::kInt64},
                                              {"v", rel::ValueType::kInt64}}),
                                 inner_options)
                 .ValueOrDie();
    for (int64_t i = 0; i < 40; ++i) {
      rids_.push_back(
          base_->Insert(Tuple({Value(i), Value(i % 4)})).ValueOrDie());
    }
    for (int64_t i = 0; i < 4; ++i) {
      (void)inner_->Insert(Tuple({Value(i), Value(i * 10)}));
    }
  }

  DatabaseProcedure MakeP1(ProcId id, int64_t lo, int64_t hi) {
    DatabaseProcedure procedure;
    procedure.id = id;
    procedure.name = "P1_" + std::to_string(id);
    procedure.query.base = rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    return procedure;
  }

  DatabaseProcedure MakeP2(ProcId id, int64_t lo, int64_t hi) {
    DatabaseProcedure procedure = MakeP1(id, lo, hi);
    procedure.name = "P2_" + std::to_string(id);
    JoinStage stage;
    stage.relation = "R2";
    stage.probe_column = 1;
    procedure.query.joins.push_back(stage);
    return procedure;
  }

  // Applies one in-place update and notifies the strategy the way the
  // simulator does: the base-table write itself is un-metered (identical
  // across strategies and excluded by the paper's analysis); only the
  // strategy's reaction is charged.
  void UpdateTuple(Strategy* strategy, std::size_t index, int64_t new_key,
                   int64_t new_a) {
    const Tuple new_tuple({Value(new_key), Value(new_a)});
    Tuple old_tuple;
    {
      storage::MeteringGuard guard(&disk_);
      old_tuple = base_->Read(rids_[index]).ValueOrDie();
      ASSERT_TRUE(base_->UpdateInPlace(rids_[index], new_tuple).ok());
    }
    ivm::ChangeBatch changes;
    changes.AddDelete(old_tuple);
    changes.AddInsert(new_tuple);
    strategy->OnBatch("R1", changes);
  }

  std::vector<Tuple> Recompute(const ProcedureQuery& query) {
    storage::MeteringGuard guard(&disk_);
    return executor_.Execute(query).ValueOrDie();
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  CacheBudget budget_{0};  // unlimited: accounts, never evicts
  rel::Relation* base_ = nullptr;
  rel::Relation* inner_ = nullptr;
  std::vector<storage::RecordId> rids_;
};

TEST_F(StrategyTest, AlwaysRecomputeReflectsUpdatesImmediately) {
  AlwaysRecomputeStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 10, 19)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 10u);
  UpdateTuple(&strategy, 30, 15, 0);  // moves key 30 -> 15, into range
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 11u);
}

TEST_F(StrategyTest, AlwaysRecomputeUnknownProcedure) {
  AlwaysRecomputeStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_);
  ASSERT_TRUE(strategy.Prepare().ok());
  EXPECT_EQ(strategy.Access(3).status().code(), StatusCode::kNotFound);
}

TEST_F(StrategyTest, ProcedureIdsMustBeDense) {
  AlwaysRecomputeStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_);
  EXPECT_FALSE(strategy.AddProcedure(MakeP1(5, 0, 1)).ok());
}

TEST_F(StrategyTest, CacheInvalidateServesFromCacheWhenValid) {
  CacheInvalidateStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_, 0.0);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 10, 19)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  EXPECT_TRUE(strategy.IsValid(0));
  meter_.Reset();
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 10u);
  // Valid cache: one page read (10 tuples, 40/page), no recompute screens.
  EXPECT_EQ(meter_.disk_reads(), 1u);
  EXPECT_EQ(meter_.screens(), 0u);
}

TEST_F(StrategyTest, CacheInvalidateInvalidatesOnConflictOnly) {
  CacheInvalidateStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_, 0.0);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 10, 19)).ok());
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(1, 30, 39)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  UpdateTuple(&strategy, 15, 16, 0);  // inside procedure 0's interval only
  EXPECT_FALSE(strategy.IsValid(0));
  EXPECT_TRUE(strategy.IsValid(1));
  // Next access recomputes and re-validates.
  EXPECT_EQ(Canon(strategy.Access(0).ValueOrDie()),
            Canon(Recompute(strategy.procedures()[0].query)));
  EXPECT_TRUE(strategy.IsValid(0));
}

TEST_F(StrategyTest, CacheInvalidateChargesInvalidationCost) {
  CacheInvalidateStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_, 60.0);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 0, 39)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  meter_.Reset();
  UpdateTuple(&strategy, 5, 6, 0);
  EXPECT_EQ(strategy.invalidation_count(), 1u);
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 60.0);
  // Already invalid: a second conflicting update records nothing new.
  UpdateTuple(&strategy, 6, 7, 0);
  EXPECT_EQ(strategy.invalidation_count(), 1u);
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 60.0);
}

TEST_F(StrategyTest, CacheInvalidateFalseInvalidation) {
  // The i-lock covers the whole selection interval of a join procedure; an
  // update inside the interval invalidates even if the joined residual
  // would reject the new tuple — the paper's false invalidation.
  CacheInvalidateStrategy strategy(&catalog_, &executor_, &meter_,
                                   100, &budget_, 0.0);
  DatabaseProcedure p2 = MakeP2(0, 10, 19);
  p2.query.joins[0].residual = Conjunction(
      {rel::PredicateTerm{1, rel::CompareOp::kEq, Value(int64_t{-1})}});
  ASSERT_TRUE(strategy.AddProcedure(p2).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  EXPECT_TRUE(strategy.Access(0).ValueOrDie().empty());  // residual rejects
  UpdateTuple(&strategy, 12, 13, 2);  // in interval; result stays empty
  EXPECT_FALSE(strategy.IsValid(0));  // invalidated anyway
  EXPECT_TRUE(strategy.Access(0).ValueOrDie().empty());
}

// A double that moves by 1e-9 changes the procedure's value: the refresh
// must count as a true invalidation even though the two values print alike
// to six decimals.
TEST(CacheInvalidateDoubleTest, TinyDoubleChangeIsATrueInvalidation) {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);
  rel::Relation::Options options;
  options.tuple_width_bytes = 100;
  options.btree_column = 0;
  rel::Relation* table =
      catalog
          .CreateRelation("R1",
                          rel::Schema({{"key", rel::ValueType::kInt64},
                                       {"d", rel::ValueType::kDouble}}),
                          options)
          .ValueOrDie();
  std::vector<storage::RecordId> rids;
  for (int64_t i = 0; i < 10; ++i) {
    rids.push_back(table->Insert(Tuple({Value(i), Value(1e-9)})).ValueOrDie());
  }
  CacheBudget budget(0);
  CacheInvalidateStrategy strategy(&catalog, &executor, &meter, 100, &budget,
                                   0.0);
  DatabaseProcedure procedure;
  procedure.id = 0;
  procedure.name = "P";
  procedure.query.base = rel::BaseSelection{"R1", 0, 9, Conjunction{}};
  ASSERT_TRUE(strategy.AddProcedure(procedure).ok());
  ASSERT_TRUE(strategy.Prepare().ok());

  const Tuple new_tuple({Value(int64_t{3}), Value(2e-9)});
  // Precondition: the old and new rows print alike; only their bytes differ.
  ASSERT_EQ(new_tuple.ToString(),
            Tuple({Value(int64_t{3}), Value(1e-9)}).ToString());
  Tuple old_tuple;
  {
    storage::MeteringGuard guard(&disk);
    old_tuple = table->Read(rids[3]).ValueOrDie();
    ASSERT_TRUE(table->UpdateInPlace(rids[3], new_tuple).ok());
  }
  ivm::ChangeBatch changes;
  changes.AddDelete(old_tuple);
  changes.AddInsert(new_tuple);
  strategy.OnBatch("R1", changes);
  ASSERT_FALSE(strategy.IsValid(0));

  const obs::Counter* true_invalidations = obs::GlobalMetrics().FindCounter(
      "proc.cache_invalidate.true_invalidations");
  const obs::Counter* false_invalidations = obs::GlobalMetrics().FindCounter(
      "proc.cache_invalidate.false_invalidations");
  ASSERT_NE(true_invalidations, nullptr);
  ASSERT_NE(false_invalidations, nullptr);
  const uint64_t true_before = true_invalidations->value();
  const uint64_t false_before = false_invalidations->value();
  ASSERT_EQ(strategy.Access(0).ValueOrDie().size(), 10u);
  EXPECT_EQ(true_invalidations->value() - true_before, 1u);
  EXPECT_EQ(false_invalidations->value() - false_before, 0u);
}

TEST_F(StrategyTest, AvmMaintainsJoinProcedureThroughUpdates) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_,
                                  100, &budget_);
  ASSERT_TRUE(strategy.AddProcedure(MakeP2(0, 0, 39)).ok());
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(1, 20, 29)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  UpdateTuple(&strategy, 3, 25, 1);
  UpdateTuple(&strategy, 25, 2, 3);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(Canon(strategy.Access(0).ValueOrDie()),
            Canon(Recompute(strategy.procedures()[0].query)));
  EXPECT_EQ(Canon(strategy.Access(1).ValueOrDie()),
            Canon(Recompute(strategy.procedures()[1].query)));
}

TEST_F(StrategyTest, AvmAccessReadsOnlyStoredPages) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_,
                                  100, &budget_);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 0, 39)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  meter_.Reset();
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 40u);
  EXPECT_EQ(meter_.disk_reads(), 1u);  // 40 tuples = exactly one page
  EXPECT_EQ(meter_.screens(), 0u);
}

TEST_F(StrategyTest, AvmChargesScreenAndC3PerBrokenLock) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_,
                                  100, &budget_);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 10, 19)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  meter_.Reset();
  // Update fully outside the interval: no charges at all.
  UpdateTuple(&strategy, 30, 35, 0);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
  // Update moving into the interval: one screen + one C3 + refresh I/O.
  UpdateTuple(&strategy, 31, 12, 0);
  EXPECT_EQ(meter_.screens(), 1u);
  EXPECT_EQ(meter_.delta_ops(), 1u);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_GE(meter_.disk_writes(), 1u);
}

TEST_F(StrategyTest, RvmMaintainsProceduresAndReportsSharing) {
  UpdateCacheRvmStrategy strategy(&catalog_, &executor_, &meter_,
                                  100, &budget_);
  ASSERT_TRUE(strategy.AddProcedure(MakeP1(0, 10, 19)).ok());
  ASSERT_TRUE(strategy.AddProcedure(MakeP2(1, 10, 19)).ok());  // shares base
  ASSERT_TRUE(strategy.Prepare().ok());
  EXPECT_GE(strategy.network_stats().shared_subexpression_hits, 1u);
  UpdateTuple(&strategy, 30, 15, 2);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(Canon(strategy.Access(0).ValueOrDie()),
            Canon(Recompute(strategy.procedures()[0].query)));
  EXPECT_EQ(Canon(strategy.Access(1).ValueOrDie()),
            Canon(Recompute(strategy.procedures()[1].query)));
}

TEST_F(StrategyTest, AllStrategiesAgreeAfterMixedWorkload) {
  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<AlwaysRecomputeStrategy>(
      &catalog_, &executor_, &meter_, 100, &budget_));
  strategies.push_back(std::make_unique<CacheInvalidateStrategy>(
      &catalog_, &executor_, &meter_, 100, &budget_, 0.0));
  strategies.push_back(std::make_unique<UpdateCacheAvmStrategy>(
      &catalog_, &executor_, &meter_, 100, &budget_));
  strategies.push_back(std::make_unique<UpdateCacheRvmStrategy>(
      &catalog_, &executor_, &meter_, 100, &budget_));
  for (auto& strategy : strategies) {
    ASSERT_TRUE(strategy->AddProcedure(MakeP1(0, 5, 14)).ok());
    ASSERT_TRUE(strategy->AddProcedure(MakeP2(1, 10, 29)).ok());
    ASSERT_TRUE(strategy->Prepare().ok());
  }
  // One shared update stream observed by every strategy.
  for (int round = 0; round < 10; ++round) {
    const std::size_t index = static_cast<std::size_t>(round * 3 % 40);
    const Tuple old_tuple = base_->Read(rids_[index]).ValueOrDie();
    const Tuple new_tuple(
        {Value(static_cast<int64_t>((round * 7) % 40)),
         Value(static_cast<int64_t>(round % 4))});
    ASSERT_TRUE(base_->UpdateInPlace(rids_[index], new_tuple).ok());
    ivm::ChangeBatch changes;
    changes.AddDelete(old_tuple);
    changes.AddInsert(new_tuple);
    for (auto& strategy : strategies) strategy->OnBatch("R1", changes);
    for (auto& strategy : strategies) {
      ASSERT_TRUE(strategy->OnTransactionEnd().ok());
    }
    for (ProcId id : {ProcId{0}, ProcId{1}}) {
      const auto expected = Canon(strategies[0]->Access(id).ValueOrDie());
      for (std::size_t s = 1; s < strategies.size(); ++s) {
        EXPECT_EQ(Canon(strategies[s]->Access(id).ValueOrDie()), expected)
            << strategies[s]->name() << " diverged on procedure " << id
            << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace procsim::proc
