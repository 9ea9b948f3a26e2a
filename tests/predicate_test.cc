#include "relational/predicate.h"

#include <gtest/gtest.h>

namespace procsim::rel {
namespace {

Tuple Row(int64_t a, int64_t b) {
  return Tuple({Value(a), Value(b)});
}

TEST(EvalCompareTest, AllSixOperators) {
  const Value two(int64_t{2});
  const Value three(int64_t{3});
  EXPECT_TRUE(EvalCompare(two, CompareOp::kLt, three));
  EXPECT_FALSE(EvalCompare(three, CompareOp::kLt, two));
  EXPECT_TRUE(EvalCompare(three, CompareOp::kGt, two));
  EXPECT_TRUE(EvalCompare(two, CompareOp::kLe, two));
  EXPECT_TRUE(EvalCompare(two, CompareOp::kGe, two));
  EXPECT_TRUE(EvalCompare(two, CompareOp::kEq, two));
  EXPECT_FALSE(EvalCompare(two, CompareOp::kEq, three));
  EXPECT_TRUE(EvalCompare(two, CompareOp::kNe, three));
}

TEST(PredicateTermTest, MatchesAgainstColumn) {
  PredicateTerm term{1, CompareOp::kGe, Value(int64_t{10})};
  EXPECT_TRUE(term.Matches(Row(0, 10)));
  EXPECT_TRUE(term.Matches(Row(0, 11)));
  EXPECT_FALSE(term.Matches(Row(0, 9)));
}

TEST(ConjunctionTest, EmptyMatchesEverything) {
  Conjunction empty;
  EXPECT_TRUE(empty.Matches(Row(1, 2)));
  EXPECT_EQ(empty.ToString(), "true");
}

TEST(ConjunctionTest, AllTermsMustHold) {
  Conjunction both({PredicateTerm{0, CompareOp::kGe, Value(int64_t{5})},
                    PredicateTerm{1, CompareOp::kLt, Value(int64_t{10})}});
  EXPECT_TRUE(both.Matches(Row(5, 9)));
  EXPECT_FALSE(both.Matches(Row(4, 9)));
  EXPECT_FALSE(both.Matches(Row(5, 10)));
}

TEST(ConjunctionTest, ScreenCountingShortCircuits) {
  Conjunction both({PredicateTerm{0, CompareOp::kGe, Value(int64_t{5})},
                    PredicateTerm{1, CompareOp::kLt, Value(int64_t{10})}});
  std::size_t screens = 0;
  EXPECT_FALSE(both.Matches(Row(0, 0), &screens));
  EXPECT_EQ(screens, 1u);  // first term fails, second never evaluated
  screens = 0;
  EXPECT_TRUE(both.Matches(Row(5, 0), &screens));
  EXPECT_EQ(screens, 2u);
}

TEST(ConjunctionTest, ToStringWithSchema) {
  Schema schema({Column{"age", ValueType::kInt64},
                 Column{"dept", ValueType::kInt64}});
  Conjunction c({PredicateTerm{0, CompareOp::kGt, Value(int64_t{30})}});
  EXPECT_EQ(c.ToString(&schema), "age > 30");
}

}  // namespace
}  // namespace procsim::rel
