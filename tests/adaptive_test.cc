#include "proc/update_cache_avm.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "relational/catalog.h"
#include "relational/executor.h"
#include "sim/simulator.h"

namespace procsim::proc {
namespace {

using rel::Conjunction;
using rel::Tuple;
using rel::Value;

std::vector<std::string> Canon(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

class AdaptiveTest : public ::testing::Test {
 protected:
  AdaptiveTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
    rel::Relation::Options options;
    options.tuple_width_bytes = 100;
    options.btree_column = 0;
    table_ = catalog_
                 .CreateRelation("R1",
                                 rel::Schema({{"key", rel::ValueType::kInt64},
                                              {"v", rel::ValueType::kInt64}}),
                                 options)
                 .ValueOrDie();
    for (int64_t i = 0; i < 60; ++i) {
      rids_.push_back(
          table_->Insert(Tuple({Value(i), Value(i)})).ValueOrDie());
    }
  }

  DatabaseProcedure Proc(ProcId id, int64_t lo, int64_t hi) {
    DatabaseProcedure procedure;
    procedure.id = id;
    procedure.name = "P";
    procedure.name += std::to_string(id);
    procedure.query.base = rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    return procedure;
  }

  // Applies one in-place update and notifies every strategy in `strategies`.
  void UpdateTuple(const std::vector<Strategy*>& strategies, std::size_t index,
                   int64_t new_key) {
    const Tuple new_tuple({Value(new_key), Value(int64_t{0})});
    Tuple old_tuple;
    {
      storage::MeteringGuard guard(&disk_);
      old_tuple = table_->Read(rids_[index]).ValueOrDie();
      ASSERT_TRUE(table_->UpdateInPlace(rids_[index], new_tuple).ok());
    }
    ivm::ChangeBatch changes;
    changes.AddDelete(old_tuple);
    changes.AddInsert(new_tuple);
    for (Strategy* strategy : strategies) strategy->OnBatch("R1", changes);
  }

  void UpdateTuple(Strategy* strategy, std::size_t index, int64_t new_key) {
    UpdateTuple(std::vector<Strategy*>{strategy}, index, new_key);
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  CacheBudget budget_{0};  // unlimited: accounts, never evicts
  rel::Relation* table_ = nullptr;
  std::vector<storage::RecordId> rids_;
};

TEST_F(AdaptiveTest, SmallDeltaIsPatched) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_, 100, &budget_,
                                  /*patch_fraction=*/0.25,
                                  /*max_unread_patches=*/4);
  ASSERT_TRUE(strategy.AddProcedure(Proc(0, 0, 39)).ok());  // 40-tuple view
  ASSERT_TRUE(strategy.Prepare().ok());
  UpdateTuple(&strategy, 5, 100);  // 1 delta tuple vs 40 -> patch
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(strategy.patch_count(), 1u);
  EXPECT_EQ(strategy.invalidate_count(), 0u);
  EXPECT_TRUE(strategy.IsValid(0));
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 39u);
}

TEST_F(AdaptiveTest, LargeDeltaInvalidates) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_, 100, &budget_,
                                  /*patch_fraction=*/0.25,
                                  /*max_unread_patches=*/4);
  ASSERT_TRUE(strategy.AddProcedure(Proc(0, 0, 19)).ok());  // 20-tuple view
  ASSERT_TRUE(strategy.Prepare().ok());
  // One transaction rewrites 8 in-range tuples: 8 deletes + ~inserts > 25%.
  for (std::size_t i = 0; i < 8; ++i) {
    UpdateTuple(&strategy, i, 200 + static_cast<int64_t>(i));
  }
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(strategy.invalidate_count(), 1u);
  EXPECT_FALSE(strategy.IsValid(0));
  // Next access recomputes, refreshes, revalidates.
  EXPECT_EQ(strategy.Access(0).ValueOrDie().size(), 12u);
  EXPECT_TRUE(strategy.IsValid(0));
}

TEST_F(AdaptiveTest, ZeroFractionDegeneratesToCacheInvalidate) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_, 100, &budget_,
                                  /*patch_fraction=*/0.0,
                                  /*max_unread_patches=*/4);
  ASSERT_TRUE(strategy.AddProcedure(Proc(0, 0, 39)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  UpdateTuple(&strategy, 3, 100);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(strategy.patch_count(), 0u);
  EXPECT_EQ(strategy.invalidate_count(), 1u);
}

TEST_F(AdaptiveTest, UpdatesWhileInvalidAreAbsorbedByRecompute) {
  UpdateCacheAvmStrategy strategy(&catalog_, &executor_, &meter_, 100, &budget_,
                                  /*patch_fraction=*/0.0,
                                  /*max_unread_patches=*/4);
  ASSERT_TRUE(strategy.AddProcedure(Proc(0, 0, 39)).ok());
  ASSERT_TRUE(strategy.Prepare().ok());
  UpdateTuple(&strategy, 3, 100);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  // More updates while invalid: no delta tracking, no extra invalidations.
  UpdateTuple(&strategy, 4, 101);
  UpdateTuple(&strategy, 5, 102);
  ASSERT_TRUE(strategy.OnTransactionEnd().ok());
  EXPECT_EQ(strategy.invalidate_count(), 1u);
  // The recompute reflects all three updates.
  storage::MeteringGuard guard(&disk_);
  EXPECT_EQ(Canon(strategy.Access(0).ValueOrDie()),
            Canon(executor_.Execute(strategy.procedures()[0].query)
                      .ValueOrDie()));
}

TEST_F(AdaptiveTest, DefaultThresholdsPatchEveryDelta) {
  UpdateCacheAvmStrategy avm(&catalog_, &executor_, &meter_, 100, &budget_);
  UpdateCacheAvmStrategy adaptive(&catalog_, &executor_, &meter_, 100, &budget_,
                                  /*patch_fraction=*/0.25,
                                  /*max_unread_patches=*/4);
  EXPECT_EQ(avm.name(), "UpdateCache/AVM");
  EXPECT_EQ(adaptive.name(), "UpdateCache/Adaptive");
  for (UpdateCacheAvmStrategy* strategy : {&avm, &adaptive}) {
    ASSERT_TRUE(strategy->AddProcedure(Proc(0, 0, 4)).ok());  // 5-tuple view
    ASSERT_TRUE(strategy->Prepare().ok());
  }
  // One transaction moves the whole view out and four other tuples in:
  // 5 deletes + 4 inserts, a delta larger than the view itself.
  const std::vector<Strategy*> both{&avm, &adaptive};
  for (std::size_t i = 0; i < 5; ++i) {
    UpdateTuple(both, i, 200 + static_cast<int64_t>(i));
  }
  for (std::size_t i = 1; i < 5; ++i) {
    UpdateTuple(both, 40 + i, static_cast<int64_t>(i));
  }
  ASSERT_TRUE(avm.OnTransactionEnd().ok());
  ASSERT_TRUE(adaptive.OnTransactionEnd().ok());
  EXPECT_EQ(adaptive.invalidate_count(), 1u);
  EXPECT_FALSE(adaptive.IsValid(0));
  EXPECT_EQ(avm.patch_count(), 1u);
  EXPECT_EQ(avm.invalidate_count(), 0u);
  EXPECT_TRUE(avm.IsValid(0));
  std::vector<Tuple> expected;
  {
    storage::MeteringGuard guard(&disk_);
    expected = executor_.Execute(avm.procedures()[0].query).ValueOrDie();
  }
  EXPECT_EQ(expected.size(), 4u);
  EXPECT_EQ(Canon(avm.SnapshotForTesting(0)), Canon(expected));
  EXPECT_EQ(Canon(avm.Access(0).ValueOrDie()), Canon(expected));
}

// Full-workload equivalence via the simulator.
class AdaptiveSimTest : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveSimTest, MatchesRecomputationUnderWorkload) {
  sim::Simulator::Options options;
  options.params.N = 2000;
  options.params.N1 = 10;
  options.params.N2 = 10;
  options.params.k = 20;
  options.params.q = 20;
  options.params.l = 5;
  options.params.f = 0.01;
  options.params.f2 = 0.2;
  options.seed = 17;
  options.verify_results = true;
  // An infinite fraction is the never-invalidate limit: pure AVM, which
  // also lifts the staleness cutoff.
  const double fraction = GetParam();
  const bool pure_avm = fraction == UpdateCacheAvmStrategy::kAlwaysPatch;
  Result<sim::SimulationResult> result = sim::Simulator::RunWithFactory(
      [&](sim::Database* db, CacheBudget* budget) {
        auto strategy = std::make_unique<UpdateCacheAvmStrategy>(
            db->catalog.get(), db->executor.get(), &db->meter,
            static_cast<std::size_t>(options.params.S), budget, fraction,
            pure_avm ? UpdateCacheAvmStrategy::kNoStalenessLimit : 4);
        EXPECT_EQ(strategy->name(), pure_avm ? "UpdateCache/AVM"
                                             : "UpdateCache/Adaptive");
        return strategy;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().verification_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(PatchFractions, AdaptiveSimTest,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 100.0,
                                           UpdateCacheAvmStrategy::kAlwaysPatch));

}  // namespace
}  // namespace procsim::proc
