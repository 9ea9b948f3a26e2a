#include "relational/executor.h"

#include <gtest/gtest.h>

#include "relational/catalog.h"

namespace procsim::rel {
namespace {

// A miniature version of the paper's schema: EMP-style base relation with a
// B-tree on `key`, joined to a DEPT-style relation hashed on `id`.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
    Relation::Options base_options;
    base_options.tuple_width_bytes = 100;
    base_options.btree_column = 0;
    Schema base_schema({Column{"key", ValueType::kInt64},
                        Column{"dept", ValueType::kInt64}});
    base_ = catalog_.CreateRelation("EMP", base_schema, base_options)
                .ValueOrDie();

    Relation::Options dept_options;
    dept_options.tuple_width_bytes = 100;
    dept_options.hash_column = 0;
    Schema dept_schema({Column{"id", ValueType::kInt64},
                        Column{"floor", ValueType::kInt64}});
    dept_ = catalog_.CreateRelation("DEPT", dept_schema, dept_options)
                .ValueOrDie();

    // 50 employees, depts 0-4; dept d is on floor d % 2.
    for (int64_t i = 0; i < 50; ++i) {
      (void)base_->Insert(Tuple({Value(i), Value(i % 5)}));
    }
    for (int64_t d = 0; d < 5; ++d) {
      (void)dept_->Insert(Tuple({Value(d), Value(d % 2)}));
    }
  }

  ProcedureQuery SelectOnly(int64_t lo, int64_t hi) {
    ProcedureQuery query;
    query.base = BaseSelection{"EMP", lo, hi, Conjunction{}};
    return query;
  }

  ProcedureQuery SelectJoin(int64_t lo, int64_t hi,
                            Conjunction dept_residual = Conjunction{}) {
    ProcedureQuery query;
    query.base = BaseSelection{"EMP", lo, hi, Conjunction{}};
    JoinStage stage;
    stage.relation = "DEPT";
    stage.probe_column = 1;  // EMP.dept
    stage.residual = std::move(dept_residual);
    query.joins.push_back(std::move(stage));
    return query;
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  Catalog catalog_;
  Executor executor_;
  Relation* base_ = nullptr;
  Relation* dept_ = nullptr;
};

TEST_F(ExecutorTest, SelectionReturnsRangeMatches) {
  auto result = executor_.Execute(SelectOnly(10, 19));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().size(), 10u);
  for (const Tuple& row : result.ValueOrDie()) {
    EXPECT_GE(row.value(0).AsInt64(), 10);
    EXPECT_LE(row.value(0).AsInt64(), 19);
  }
}

TEST_F(ExecutorTest, SelectionWithResidual) {
  ProcedureQuery query = SelectOnly(0, 49);
  query.base.residual = Conjunction(
      {PredicateTerm{1, CompareOp::kEq, Value(int64_t{3})}});
  auto result = executor_.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().size(), 10u);  // every 5th of 50
}

TEST_F(ExecutorTest, JoinConcatenatesTuples) {
  auto result = executor_.Execute(SelectJoin(0, 9));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 10u);
  for (const Tuple& row : result.ValueOrDie()) {
    ASSERT_EQ(row.arity(), 4u);  // EMP(2) ++ DEPT(2)
    EXPECT_EQ(row.value(1).AsInt64(), row.value(2).AsInt64());  // dept = id
  }
}

TEST_F(ExecutorTest, JoinResidualFilters) {
  // Only departments on floor 1 (odd ids).
  Conjunction floor1({PredicateTerm{1, CompareOp::kEq, Value(int64_t{1})}});
  auto result = executor_.Execute(SelectJoin(0, 49, floor1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().size(), 20u);  // depts 1 and 3
  for (const Tuple& row : result.ValueOrDie()) {
    EXPECT_EQ(row.value(3).AsInt64(), 1);
  }
}

TEST_F(ExecutorTest, EmptyRangeYieldsNothing) {
  auto result = executor_.Execute(SelectOnly(100, 200));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().empty());
}

TEST_F(ExecutorTest, ChargesScreensPerRetrievedTuple) {
  meter_.Reset();
  ASSERT_TRUE(executor_.Execute(SelectOnly(0, 9)).ok());
  // One screen per fetched tuple (the paper's C1 * fN).
  EXPECT_EQ(meter_.screens(), 10u);
}

TEST_F(ExecutorTest, JoinChargesScreensPerProbeResult) {
  meter_.Reset();
  ASSERT_TRUE(executor_.Execute(SelectJoin(0, 9)).ok());
  // 10 base screens + 10 join-verification screens.
  EXPECT_EQ(meter_.screens(), 20u);
}

TEST_F(ExecutorTest, ChargesOneScreenPerTermEvaluatedUpToFirstRejection) {
  // EMP keys 0-9 carry depts 0,1,2,3,4,0,1,2,3,4; DEPT d is on floor d % 2.
  // Base residual: dept >= 2 rejects depts 0 and 1 at its first term (4 rows,
  // 1 evaluation each); dept != 3 rejects dept 3 at the second term, and
  // depts 2 and 4 pass both (6 rows, 2 evaluations each).
  ProcedureQuery base_query = SelectOnly(0, 9);
  base_query.base.residual =
      Conjunction({PredicateTerm{1, CompareOp::kGe, Value(int64_t{2})},
                   PredicateTerm{1, CompareOp::kNe, Value(int64_t{3})}});
  meter_.Reset();
  auto selected = executor_.Execute(base_query);
  ASSERT_TRUE(selected.ok());
  std::vector<int64_t> keys;
  for (const Tuple& row : selected.ValueOrDie()) {
    keys.push_back(row.value(0).AsInt64());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{2, 4, 7, 9}));
  EXPECT_EQ(meter_.screens(), 10u + 4u * 1u + 6u * 2u);

  // A join stage without a residual charges one screen per candidate.
  meter_.Reset();
  ASSERT_TRUE(executor_.Execute(SelectJoin(0, 9)).ok());
  EXPECT_EQ(meter_.screens(), 10u + 10u);

  // Join residual: floor = 1 rejects depts 0, 2 and 4 at its first term (6
  // candidates, 1 evaluation each); id != 3 rejects dept 3 at the second term
  // and dept 1 passes both (4 candidates, 2 evaluations each).
  const Conjunction join_residual(
      {PredicateTerm{1, CompareOp::kEq, Value(int64_t{1})},
       PredicateTerm{0, CompareOp::kNe, Value(int64_t{3})}});
  meter_.Reset();
  auto joined = executor_.Execute(SelectJoin(0, 9, join_residual));
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.ValueOrDie().size(), 2u);
  EXPECT_EQ(joined.ValueOrDie()[0],
            Tuple({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1}),
                   Value(int64_t{1})}));
  EXPECT_EQ(joined.ValueOrDie()[1].value(0).AsInt64(), 6);
  EXPECT_EQ(meter_.screens(), 10u + 6u * 1u + 4u * 2u);

  // JoinDeltas charges only the join stages, per delta tuple, duplicates
  // included: the whole set costs what its tuples cost one at a time.
  const std::vector<Tuple> deltas{Tuple({Value(int64_t{1}), Value(int64_t{1})}),
                                  Tuple({Value(int64_t{3}), Value(int64_t{3})}),
                                  Tuple({Value(int64_t{4}), Value(int64_t{4})}),
                                  Tuple({Value(int64_t{1}), Value(int64_t{1})})};
  meter_.Reset();
  auto delta_rows = executor_.JoinDeltas(SelectJoin(0, 49, join_residual),
                                         deltas);
  ASSERT_TRUE(delta_rows.ok());
  EXPECT_EQ(delta_rows.ValueOrDie().size(), 2u);
  EXPECT_EQ(meter_.screens(), 2u + 2u + 1u + 2u);
  const double set_ms = meter_.total_ms();
  const std::uint64_t set_reads = meter_.disk_reads();
  meter_.Reset();
  for (const Tuple& delta : deltas) {
    ASSERT_TRUE(
        executor_.JoinDeltas(SelectJoin(0, 49, join_residual), {delta}).ok());
  }
  EXPECT_EQ(meter_.screens(), 7u);
  EXPECT_EQ(meter_.disk_reads(), set_reads);
  EXPECT_DOUBLE_EQ(meter_.total_ms(), set_ms);
}

TEST_F(ExecutorTest, TraceRecordsProbedKeys) {
  ExecutionTrace trace;
  ASSERT_TRUE(executor_.Execute(SelectJoin(0, 4), &trace).ok());
  ASSERT_EQ(trace.probed_keys.size(), 1u);
  EXPECT_EQ(trace.probed_keys[0], (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST_F(ExecutorTest, JoinDeltasRunsOnlyJoinPipeline) {
  // Feed two base tuples directly; no B-tree scan happens.
  std::vector<Tuple> deltas{Tuple({Value(int64_t{7}), Value(int64_t{2})}),
                            Tuple({Value(int64_t{8}), Value(int64_t{4})})};
  auto result = executor_.JoinDeltas(SelectJoin(0, 49), deltas);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().size(), 2u);
  EXPECT_EQ(result.ValueOrDie()[0].value(2).AsInt64(), 2);
  EXPECT_EQ(result.ValueOrDie()[1].value(2).AsInt64(), 4);
}

TEST_F(ExecutorTest, MatchesBaseScreensAndDecides) {
  meter_.Reset();
  auto query = SelectOnly(10, 19);
  EXPECT_TRUE(executor_
                  .MatchesBase(query, Tuple({Value(int64_t{15}),
                                             Value(int64_t{0})}))
                  .ValueOrDie());
  EXPECT_FALSE(executor_
                   .MatchesBase(query, Tuple({Value(int64_t{25}),
                                              Value(int64_t{0})}))
                   .ValueOrDie());
  EXPECT_EQ(meter_.screens(), 2u);
}

TEST_F(ExecutorTest, OutputSchemaConcatenatesWithPrefixes) {
  Result<Schema> schema = SelectJoin(0, 1).OutputSchema(catalog_);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema.ValueOrDie().num_columns(), 4u);
  EXPECT_EQ(schema.ValueOrDie().column(0).name, "EMP.key");
  EXPECT_EQ(schema.ValueOrDie().column(2).name, "DEPT.id");
}

TEST_F(ExecutorTest, UnknownRelationIsError) {
  ProcedureQuery query;
  query.base = BaseSelection{"NOPE", 0, 1, Conjunction{}};
  EXPECT_EQ(executor_.Execute(query).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace procsim::rel
