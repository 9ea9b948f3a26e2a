#include "relational/query.h"

#include <gtest/gtest.h>

#include "relational/catalog.h"

namespace procsim::rel {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : disk_(4000, &meter_), catalog_(&disk_) {
    Relation::Options a_options;
    a_options.btree_column = 0;
    (void)catalog_.CreateRelation(
        "A", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}),
        a_options);
    Relation::Options b_options;
    b_options.hash_column = 0;
    (void)catalog_.CreateRelation("B", Schema({{"z", ValueType::kInt64}}),
                                  b_options);
  }
  CostMeter meter_;
  storage::SimulatedDisk disk_;
  Catalog catalog_;
};

TEST_F(QueryTest, ToStringDescribesPlan) {
  ProcedureQuery query;
  query.base = BaseSelection{
      "A", 1, 9,
      Conjunction({PredicateTerm{1, CompareOp::kGt, Value(int64_t{5})}})};
  JoinStage stage;
  stage.relation = "B";
  stage.probe_column = 1;
  query.joins.push_back(stage);
  const std::string text = query.ToString();
  EXPECT_NE(text.find("A[btree in [1, 9]"), std::string::npos);
  EXPECT_NE(text.find("$1 > 5"), std::string::npos);
  EXPECT_NE(text.find("join B on out.$1 = hash(B)"), std::string::npos);
}

TEST_F(QueryTest, OutputSchemaPrefixesAndConcatenates) {
  ProcedureQuery query;
  query.base = BaseSelection{"A", 0, 1, Conjunction{}};
  JoinStage stage;
  stage.relation = "B";
  stage.probe_column = 0;
  query.joins.push_back(stage);
  Result<Schema> schema = query.OutputSchema(catalog_);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema.ValueOrDie().num_columns(), 3u);
  EXPECT_EQ(schema.ValueOrDie().column(0).name, "A.x");
  EXPECT_EQ(schema.ValueOrDie().column(1).name, "A.y");
  EXPECT_EQ(schema.ValueOrDie().column(2).name, "B.z");
}

TEST_F(QueryTest, OutputSchemaFailsForUnknownRelation) {
  ProcedureQuery query;
  query.base = BaseSelection{"MISSING", 0, 1, Conjunction{}};
  EXPECT_EQ(query.OutputSchema(catalog_).status().code(),
            StatusCode::kNotFound);
  query.base = BaseSelection{"A", 0, 1, Conjunction{}};
  JoinStage stage;
  stage.relation = "NOPE";
  query.joins.push_back(stage);
  EXPECT_EQ(query.OutputSchema(catalog_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryTest, SelectionOnlyStringOmitsJoins) {
  ProcedureQuery query;
  query.base = BaseSelection{"A", 3, 3, Conjunction{}};
  EXPECT_EQ(query.ToString(), "A[btree in [3, 3]]");
}

}  // namespace
}  // namespace procsim::rel
