// Property test: the executor's index-driven plans must agree with a naive
// reference evaluator (full scans + nested loops) on randomized databases
// and randomized queries, for selections and join chains of arity 1-3.
#include <gtest/gtest.h>

#include <algorithm>

#include "relational/catalog.h"
#include "relational/executor.h"
#include "util/rng.h"

namespace procsim::rel {
namespace {

std::vector<std::string> Canon(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// Naive evaluation: scan everything, apply predicates, nested-loop joins.
class NaiveEvaluator {
 public:
  explicit NaiveEvaluator(const Catalog* catalog) : catalog_(catalog) {}

  std::vector<Tuple> Evaluate(const ProcedureQuery& query) const {
    std::vector<Tuple> current;
    const Relation* base =
        catalog_->GetRelation(query.base.relation).ValueOrDie();
    const std::size_t key_column = *base->btree_column();
    (void)base->Scan([&](storage::RecordId, const Tuple& row) {
      const int64_t key = row.value(key_column).AsInt64();
      if (key >= query.base.lo && key <= query.base.hi &&
          query.base.residual.Matches(row)) {
        current.push_back(row);
      }
      return true;
    });
    for (const JoinStage& stage : query.joins) {
      const Relation* inner =
          catalog_->GetRelation(stage.relation).ValueOrDie();
      const std::size_t inner_key = *inner->hash_column();
      std::vector<Tuple> inner_rows;
      (void)inner->Scan([&](storage::RecordId, const Tuple& row) {
        inner_rows.push_back(row);
        return true;
      });
      std::vector<Tuple> next;
      for (const Tuple& outer : current) {
        for (const Tuple& inner_row : inner_rows) {
          if (outer.value(stage.probe_column) == inner_row.value(inner_key) &&
              stage.residual.Matches(inner_row)) {
            next.push_back(Tuple::Concat(outer, inner_row));
          }
        }
      }
      current = std::move(next);
    }
    return current;
  }

 private:
  const Catalog* catalog_;
};

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, AgreesWithNaiveEvaluator) {
  Rng rng(GetParam());
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  storage::MeteringGuard unmetered(&disk);
  Catalog catalog(&disk);
  Executor executor(&catalog, &meter);

  // Random-sized relations with random data.
  const int64_t n_a = 50 + static_cast<int64_t>(rng.Uniform(150));
  const int64_t n_b = 5 + static_cast<int64_t>(rng.Uniform(30));
  const int64_t n_c = 3 + static_cast<int64_t>(rng.Uniform(10));
  Relation::Options a_options;
  a_options.tuple_width_bytes = 100;
  a_options.btree_column = 0;
  Relation* a = catalog
                    .CreateRelation("A",
                                    Schema({{"k", ValueType::kInt64},
                                            {"j", ValueType::kInt64},
                                            {"w", ValueType::kInt64}}),
                                    a_options)
                    .ValueOrDie();
  Relation::Options b_options;
  b_options.tuple_width_bytes = 100;
  b_options.hash_column = 0;
  Relation* b = catalog
                    .CreateRelation("B",
                                    Schema({{"id", ValueType::kInt64},
                                            {"j2", ValueType::kInt64},
                                            {"s", ValueType::kInt64}}),
                                    b_options)
                    .ValueOrDie();
  Relation* c = catalog
                    .CreateRelation("C",
                                    Schema({{"id", ValueType::kInt64},
                                            {"t", ValueType::kInt64}}),
                                    b_options)
                    .ValueOrDie();
  for (int64_t i = 0; i < n_a; ++i) {
    // Keys may repeat (duplicates in the B-tree) and joins may dangle.
    (void)a->Insert(
        Tuple({Value(static_cast<int64_t>(rng.Uniform(100))),
               Value(static_cast<int64_t>(rng.Uniform(n_b + 3))),
               Value(static_cast<int64_t>(rng.Uniform(10)))}));
  }
  for (int64_t i = 0; i < n_b; ++i) {
    (void)b->Insert(Tuple({Value(i),
                           Value(static_cast<int64_t>(rng.Uniform(n_c + 2))),
                           Value(static_cast<int64_t>(rng.Uniform(4)))}));
  }
  for (int64_t i = 0; i < n_c; ++i) {
    (void)c->Insert(
        Tuple({Value(i), Value(static_cast<int64_t>(rng.Uniform(7)))}));
  }

  NaiveEvaluator naive(&catalog);
  for (int trial = 0; trial < 25; ++trial) {
    ProcedureQuery query;
    const int64_t lo = static_cast<int64_t>(rng.Uniform(100));
    const int64_t hi = lo + static_cast<int64_t>(rng.Uniform(40));
    query.base = BaseSelection{"A", lo, hi, Conjunction{}};
    if (rng.Bernoulli(0.5)) {
      query.base.residual = Conjunction({PredicateTerm{
          2, CompareOp::kLt,
          Value(static_cast<int64_t>(rng.Uniform(11)))}});
    }
    const int arity = static_cast<int>(rng.Uniform(3));  // 0, 1 or 2 joins
    if (arity >= 1) {
      JoinStage stage;
      stage.relation = "B";
      stage.probe_column = 1;
      if (rng.Bernoulli(0.5)) {
        stage.residual = Conjunction({PredicateTerm{
            2, CompareOp::kNe,
            Value(static_cast<int64_t>(rng.Uniform(4)))}});
      }
      query.joins.push_back(stage);
    }
    if (arity >= 2) {
      JoinStage stage;
      stage.relation = "C";
      stage.probe_column = 4;  // B.j2 within A(3) ++ B(3)
      query.joins.push_back(stage);
    }
    Result<std::vector<Tuple>> planned = executor.Execute(query);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(Canon(planned.ValueOrDie()), Canon(naive.Evaluate(query)))
        << "trial " << trial << " query " << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006));

}  // namespace
}  // namespace procsim::rel
