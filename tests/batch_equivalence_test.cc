// Row-vs-batch equivalence: the vectorized hot paths (columnar predicate
// evaluation, batch delta joins, batched delta-set views) must produce
// identical results AND identical simulated costs to their row-at-a-time
// counterparts — batching is a wall-clock optimization, never a semantic
// or cost-model change.  Everything here is seeded, so a failure
// reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ivm/delta.h"
#include "relational/predicate.h"
#include "relational/tuple_batch.h"
#include "sim/workload.h"
#include "storage/disk.h"
#include "util/cost_meter.h"
#include "util/rng.h"

namespace procsim {
namespace {

using rel::CompareOp;
using rel::Conjunction;
using rel::PredicateTerm;
using rel::SelectionVector;
using rel::Tuple;
using rel::TupleBatch;
using rel::Value;

Tuple MakeRow(int64_t a, int64_t b, int64_t c) {
  return Tuple({Value(a), Value(b), Value(c)});
}

TEST(TupleBatchTest, RowRoundTripPreservesOrderAndValues) {
  std::vector<Tuple> rows = {MakeRow(1, 2, 3), MakeRow(4, 5, 6),
                             MakeRow(7, 8, 9)};
  const TupleBatch batch = TupleBatch::FromRows(rows);
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.arity(), 3u);
  EXPECT_EQ(batch.ToRows(), rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.RowAt(i), rows[i]);
  }
  EXPECT_EQ(batch.at(1, 2).AsInt64(), 6);
}

TEST(TupleBatchTest, GatherSelectsInSelectionOrder) {
  const TupleBatch batch = TupleBatch::FromRows(
      {MakeRow(0, 0, 0), MakeRow(1, 1, 1), MakeRow(2, 2, 2)});
  const TupleBatch picked = batch.Gather({2, 0});
  ASSERT_EQ(picked.num_rows(), 2u);
  EXPECT_EQ(picked.RowAt(0), MakeRow(2, 2, 2));
  EXPECT_EQ(picked.RowAt(1), MakeRow(0, 0, 0));
}

TEST(TupleBatchTest, ReserveBeforeFirstRowIsHonored) {
  // Reserve() on an arity-less batch must not be silently dropped: the
  // capacity request is applied when the first row fixes the arity.
  TupleBatch batch;
  batch.Reserve(100);
  batch.AppendRow(MakeRow(1, 2, 3));
  EXPECT_GE(batch.column(0).capacity(), 100u);
}

TEST(TupleBatchTest, AppendConcatRowMatchesTupleConcat) {
  const TupleBatch left = TupleBatch::FromRows({MakeRow(1, 2, 3)});
  const TupleBatch right = TupleBatch::FromRows({MakeRow(4, 5, 6)});
  TupleBatch joined(6);
  joined.AppendConcatRow(left, 0, right, 0);
  ASSERT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.RowAt(0),
            Tuple::Concat(left.RowAt(0), right.RowAt(0)));
}

TEST(PredicateBatchTest, RandomConjunctionsEvalIdenticallyToRowPath) {
  // Property: for random conjunctions over random rows, EvalBatch keeps
  // exactly the rows Matches accepts, in order, and performs exactly the
  // same number of term evaluations (the C1 screens the meter charges).
  Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_terms = rng.Next() % 4;  // 0..3 terms
    std::vector<PredicateTerm> terms;
    for (std::size_t t = 0; t < num_terms; ++t) {
      terms.push_back(PredicateTerm{
          static_cast<std::size_t>(rng.Next() % 3),
          static_cast<CompareOp>(rng.Next() % 6),
          Value(static_cast<int64_t>(rng.Next() % 20))});
    }
    const Conjunction conjunction(terms);
    std::vector<Tuple> rows;
    const std::size_t num_rows = rng.Next() % 50;
    for (std::size_t i = 0; i < num_rows; ++i) {
      rows.push_back(MakeRow(static_cast<int64_t>(rng.Next() % 20),
                             static_cast<int64_t>(rng.Next() % 20),
                             static_cast<int64_t>(rng.Next() % 20)));
    }

    std::size_t row_screens = 0;
    SelectionVector expected;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (conjunction.Matches(rows[i], &row_screens)) {
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }

    const TupleBatch batch = TupleBatch::FromRows(rows);
    SelectionVector selection = rel::AllRows(batch.num_rows());
    std::size_t batch_screens = 0;
    conjunction.EvalBatch(batch, &selection, &batch_screens);

    EXPECT_EQ(selection, expected) << "trial " << trial;
    EXPECT_EQ(batch_screens, row_screens) << "trial " << trial;
  }
}

TEST(DeltaSetBatchTest, NetBatchesMatchNetInsertsAndDeletes) {
  // NetBatches must hold exactly the stream's net inserts and net deletes,
  // with multiplicity, against an independently kept reference count.
  Rng rng(17);
  ivm::DeltaSet delta;
  std::map<std::string, long> reference;
  for (int i = 0; i < 200; ++i) {
    const Tuple tuple = MakeRow(static_cast<int64_t>(rng.Next() % 10),
                                static_cast<int64_t>(rng.Next() % 10), 0);
    if (rng.Next() % 2 == 0) {
      delta.AddInsert(tuple);
      ++reference[tuple.ToString()];
    } else {
      delta.AddDelete(tuple);
      --reference[tuple.ToString()];
    }
  }
  TupleBatch inserts;
  TupleBatch deletes;
  delta.NetBatches(&inserts, &deletes);
  std::map<std::string, long> batched;
  for (const Tuple& tuple : inserts.ToRows()) ++batched[tuple.ToString()];
  for (const Tuple& tuple : deletes.ToRows()) --batched[tuple.ToString()];
  std::erase_if(reference, [](const auto& entry) { return entry.second == 0; });
  EXPECT_EQ(batched, reference);
  EXPECT_EQ(inserts.num_rows() + deletes.num_rows(), delta.TotalNetSize());

  // Either side may be skipped.
  TupleBatch inserts_only;
  delta.NetBatches(&inserts_only, nullptr);
  EXPECT_EQ(inserts_only.ToRows(), inserts.ToRows());
}

TEST(ChangeBatchTest, PreservesOrder) {
  ivm::ChangeBatch changes;
  const Tuple old_row = MakeRow(1, 1, 1);
  const Tuple new_row = MakeRow(1, 2, 2);
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

cost::Params SmallParams() {
  cost::Params params;
  params.N = 200;
  params.f_R2 = 0.2;
  params.f_R3 = 0.2;
  params.l = 3;
  params.N1 = 4;
  params.N2 = 4;
  params.SF = 0.5;
  params.f = 0.1;
  params.f2 = 0.3;
  return params;
}

std::vector<Tuple> ReadR1(sim::Database* db) {
  std::vector<Tuple> rows;
  Result<rel::Relation*> relation = db->catalog->GetRelation("R1");
  EXPECT_TRUE(relation.ok());
  storage::MeteringGuard guard(db->disk.get());
  Status scanned = relation.ValueOrDie()->Scan(
      [&rows](storage::RecordId, const Tuple& tuple) {
        rows.push_back(tuple);
        return true;
      });
  EXPECT_TRUE(scanned.ok());
  return rows;
}

TEST(DeltaJoinBatchTest, BatchedJoinDeltasMatchesRowVectorOverload) {
  Result<std::unique_ptr<sim::Database>> built =
      sim::BuildDatabase(SmallParams(), cost::ProcModel::kModel2, /*seed=*/3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<sim::Database> db = built.TakeValueOrDie();
  const std::vector<Tuple> r1 = ReadR1(db.get());
  ASSERT_FALSE(r1.empty());

  for (const proc::DatabaseProcedure& procedure : db->procedures) {
    if (procedure.query.joins.empty()) continue;
    // Delta rows satisfying the base selection, with a duplicate to check
    // multiplicity handling.
    std::vector<Tuple> deltas;
    for (const Tuple& tuple : r1) {
      const int64_t key = tuple.value(sim::R1Columns::kKey).AsInt64();
      if (key >= procedure.query.base.lo && key <= procedure.query.base.hi &&
          procedure.query.base.residual.Matches(tuple)) {
        deltas.push_back(tuple);
      }
    }
    if (!deltas.empty()) deltas.push_back(deltas.front());

    db->meter.Reset();
    Result<std::vector<Tuple>> row_out =
        db->executor->JoinDeltas(procedure.query, deltas);
    ASSERT_TRUE(row_out.ok()) << row_out.status().ToString();
    const double row_ms = db->meter.total_ms();
    const std::uint64_t row_screens = db->meter.screens();
    const std::uint64_t row_reads = db->meter.disk_reads();

    db->meter.Reset();
    Result<std::vector<Tuple>> batch_out = db->executor->JoinDeltas(
        procedure.query, TupleBatch::FromRows(deltas));
    ASSERT_TRUE(batch_out.ok()) << batch_out.status().ToString();

    EXPECT_EQ(batch_out.ValueOrDie(), row_out.ValueOrDie());
    EXPECT_EQ(db->meter.total_ms(), row_ms);
    EXPECT_EQ(db->meter.screens(), row_screens);
    EXPECT_EQ(db->meter.disk_reads(), row_reads);
  }
}

}  // namespace
}  // namespace procsim
