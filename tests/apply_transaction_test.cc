// Contract of sim::ApplyTransaction, the one path every driver (simulator,
// differential oracle, transactional engine and its recovery redo) uses to
// apply an update transaction and notify strategies: one ordered change
// batch per transaction, delete-old-then-insert-new, OnTransactionEnd only
// when something notified, and only the strategies it is handed.
#include "sim/simulator.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/workload.h"

namespace procsim::sim {
namespace {

using Kind = WorkloadOp::Kind;

/// One notified change: insert or delete, and the tuple.
struct Change {
  bool is_insert = false;
  rel::Tuple tuple;
};

/// Records every notification it receives.
class RecordingStrategy : public proc::Strategy {
 public:
  RecordingStrategy(Database* db, proc::CacheBudget* budget)
      : Strategy(db->catalog.get(), db->executor.get(), &db->meter, 100,
                 budget) {}

  std::string name() const override { return "Recording"; }
  Status Prepare() override { return Status::OK(); }
  Result<std::vector<rel::Tuple>> Access(proc::ProcId) override {
    return std::vector<rel::Tuple>{};
  }
  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override {
    relations.push_back(relation);
    std::vector<Change> batch;
    for (std::size_t i = 0; i < changes.size(); ++i) {
      batch.push_back(Change{changes.is_insert(i), changes.RowAt(i)});
    }
    batches.push_back(std::move(batch));
  }
  Status OnTransactionEnd() override {
    ++transaction_ends;
    return Status::OK();
  }

  std::vector<std::string> relations;
  std::vector<std::vector<Change>> batches;
  int transaction_ends = 0;
};

cost::Params SmallParams() {
  cost::Params params;
  params.N = 60;
  params.f_R2 = 0.1;
  params.f_R3 = 0.1;
  params.l = 2;
  params.N1 = 2;
  params.N2 = 2;
  params.SF = 0.5;
  params.f = 0.1;
  params.f2 = 0.3;
  return params;
}

class ApplyTransactionTest : public ::testing::Test {
 protected:
  /// R1's tuples in storage order (un-metered).
  std::vector<std::string> R1Rows() {
    storage::MeteringGuard guard(db_->disk.get());
    std::vector<std::string> rows;
    Status scanned = db_->catalog->GetRelation("R1").ValueOrDie()->Scan(
        [&](storage::RecordId, const rel::Tuple& tuple) {
          rows.push_back(tuple.ToString());
          return true;
        });
    EXPECT_TRUE(scanned.ok()) << scanned.ToString();
    return rows;
  }

  void SetUp() override {
    Result<std::unique_ptr<Database>> built =
        BuildDatabase(SmallParams(), cost::ProcModel::kModel1, /*seed=*/7);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    db_ = built.TakeValueOrDie();
    mix_.update_batch = 2;
  }

  std::unique_ptr<Database> db_;
  proc::CacheBudget budget_{0};
  WorkloadMix mix_;
};

TEST_F(ApplyTransactionTest, SkippedOpNotifiesNothing) {
  mix_.min_r1_tuples = db_->r1_rids.size();  // R1 is already at its minimum
  RecordingStrategy strategy(db_.get(), &budget_);
  proc::Strategy* strategies[] = {&strategy};
  const std::vector<std::string> before = R1Rows();
  const Status txn = ApplyTransaction(
      db_.get(), {WorkloadOp{Kind::kDelete, 11}}, mix_, nullptr, strategies);
  ASSERT_TRUE(txn.ok()) << txn.ToString();
  EXPECT_EQ(R1Rows(), before);
  EXPECT_TRUE(strategy.batches.empty());
  EXPECT_EQ(strategy.transaction_ends, 0);
}

TEST_F(ApplyTransactionTest, SilentUpdateAppliesWithoutNotifying) {
  RecordingStrategy strategy(db_.get(), &budget_);
  proc::Strategy* strategies[] = {&strategy};
  const std::vector<std::string> before = R1Rows();
  const Status txn =
      ApplyTransaction(db_.get(), {WorkloadOp{Kind::kSilentUpdate, 12}}, mix_,
                       nullptr, strategies);
  ASSERT_TRUE(txn.ok()) << txn.ToString();
  EXPECT_TRUE(strategy.batches.empty());
  EXPECT_EQ(strategy.transaction_ends, 0);
  EXPECT_NE(R1Rows(), before);
}

TEST_F(ApplyTransactionTest, MixedTransactionIsOneOrderedBatch) {
  const std::vector<WorkloadOp> ops = {WorkloadOp{Kind::kUpdate, 21},
                                       WorkloadOp{Kind::kInsert, 22},
                                       WorkloadOp{Kind::kDelete, 23}};
  // The expected change run: the same ops applied one by one to an
  // identically built database, each (old, new) pair flattened to
  // delete-old then insert-new.
  Result<std::unique_ptr<Database>> twin =
      BuildDatabase(SmallParams(), cost::ProcModel::kModel1, /*seed=*/7);
  ASSERT_TRUE(twin.ok());
  std::vector<Change> expected;
  for (const WorkloadOp& op : ops) {
    Result<MutationResult> applied =
        ApplyMutationOp(twin.ValueOrDie().get(), op, mix_, nullptr);
    ASSERT_TRUE(applied.ok());
    for (const auto& [old_tuple, new_tuple] : applied.ValueOrDie().changes) {
      if (old_tuple.has_value()) expected.push_back(Change{false, *old_tuple});
      if (new_tuple.has_value()) expected.push_back(Change{true, *new_tuple});
    }
  }

  RecordingStrategy strategy(db_.get(), &budget_);
  proc::Strategy* strategies[] = {&strategy};
  const Status txn =
      ApplyTransaction(db_.get(), ops, mix_, nullptr, strategies);
  ASSERT_TRUE(txn.ok()) << txn.ToString();
  ASSERT_EQ(strategy.batches.size(), 1u);
  EXPECT_EQ(strategy.relations, std::vector<std::string>{"R1"});
  EXPECT_EQ(strategy.transaction_ends, 1);

  // Two modified tuples (delete, insert each), one insert, one delete.
  const std::vector<Change>& batch = strategy.batches[0];
  ASSERT_EQ(batch.size(), 6u);
  const std::vector<bool> kinds = {false, true, false, true, true, false};
  ASSERT_EQ(batch.size(), expected.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].is_insert, kinds[i]) << "change " << i;
    EXPECT_EQ(batch[i].is_insert, expected[i].is_insert) << "change " << i;
    EXPECT_EQ(batch[i].tuple, expected[i].tuple) << "change " << i;
  }
}

TEST_F(ApplyTransactionTest, OnlyTheGivenStrategiesAreNotified) {
  RecordingStrategy first(db_.get(), &budget_);
  RecordingStrategy second(db_.get(), &budget_);
  proc::Strategy* both[] = {&first, &second};
  ASSERT_TRUE(ApplyTransaction(db_.get(), {WorkloadOp{Kind::kUpdate, 31}},
                               mix_, nullptr, both)
                  .ok());
  ASSERT_EQ(first.batches.size(), 1u);
  ASSERT_EQ(second.batches.size(), 1u);
  ASSERT_EQ(first.batches[0].size(), second.batches[0].size());
  for (std::size_t i = 0; i < first.batches[0].size(); ++i) {
    EXPECT_EQ(first.batches[0][i].tuple, second.batches[0][i].tuple);
  }

  // A list without `second` (as recovery's planted lost-invalidation bug
  // drops CacheInvalidate) leaves it out of the batch and the txn end.
  proc::Strategy* only_first[] = {&first};
  ASSERT_TRUE(ApplyTransaction(db_.get(), {WorkloadOp{Kind::kUpdate, 32}},
                               mix_, nullptr, only_first)
                  .ok());
  EXPECT_EQ(first.batches.size(), 2u);
  EXPECT_EQ(first.transaction_ends, 2);
  EXPECT_EQ(second.batches.size(), 1u);
  EXPECT_EQ(second.transaction_ends, 1);
}

}  // namespace
}  // namespace procsim::sim
