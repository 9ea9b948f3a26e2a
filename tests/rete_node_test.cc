// Direct unit tests of the Rete node types (§2 of the paper), independent
// of the network builder.
#include "rete/node.h"

#include <gtest/gtest.h>

#include <limits>

namespace procsim::rete {
namespace {

using rel::Conjunction;
using rel::PredicateTerm;
using rel::Tuple;
using rel::Value;

Tuple Row(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }
Token Plus(const Tuple& t) { return Token{Token::Tag::kInsert, t}; }
Token Minus(const Tuple& t) { return Token{Token::Tag::kDelete, t}; }

class ReteNodeTest : public ::testing::Test {
 protected:
  ReteNodeTest() : disk_(4000, &meter_) {}
  CostMeter meter_;
  storage::SimulatedDisk disk_;
};

TEST_F(ReteNodeTest, TokenTagsAndDerivation) {
  Token token = Plus(Row(1, 2));
  EXPECT_TRUE(token.is_insert());
  Token derived = token.Derive(Row(3, 4));
  EXPECT_TRUE(derived.is_insert());
  EXPECT_TRUE(derived.tuple == Row(3, 4));
  EXPECT_EQ(Minus(Row(1, 2)).ToString().substr(0, 3), "[- ");
}

TEST_F(ReteNodeTest, TConstFiltersByIntervalAndResidual) {
  TConstNode tconst(0, 10, 19,
                    Conjunction({PredicateTerm{1, rel::CompareOp::kEq,
                                               Value(int64_t{7})}}),
                    &meter_);
  MemoryNode memory(&disk_, 0, /*is_beta=*/false);
  tconst.AddSuccessor(&memory);

  ASSERT_TRUE(tconst.Activate(Plus(Row(15, 7))).ok());  // passes both
  ASSERT_TRUE(tconst.Activate(Plus(Row(25, 7))).ok());  // out of interval
  ASSERT_TRUE(tconst.Activate(Plus(Row(15, 8))).ok());  // residual rejects
  EXPECT_EQ(memory.store().size(), 1u);
  EXPECT_TRUE(memory.store().Contains(Row(15, 7)));
}

TEST_F(ReteNodeTest, TConstChargesScreensPerActivation) {
  TConstNode tconst(0, 0, 100, Conjunction{}, &meter_);
  meter_.Reset();
  ASSERT_TRUE(tconst.Activate(Plus(Row(5, 0))).ok());
  EXPECT_EQ(meter_.screens(), 1u);  // at least one screen per token
}

TEST_F(ReteNodeTest, MemoryNodeInsertAndDeleteSemantics) {
  MemoryNode memory(&disk_, 0, /*is_beta=*/true);
  ASSERT_TRUE(memory.Activate(Plus(Row(1, 1))).ok());
  ASSERT_TRUE(memory.Activate(Plus(Row(1, 1))).ok());  // duplicate (bag)
  EXPECT_EQ(memory.store().size(), 2u);
  ASSERT_TRUE(memory.Activate(Minus(Row(1, 1))).ok());
  EXPECT_EQ(memory.store().size(), 1u);
  // Removing a token that was never inserted is an error (net-change
  // streams never produce it).
  EXPECT_FALSE(memory.Activate(Minus(Row(9, 9))).ok());
  EXPECT_EQ(memory.Describe(), "beta-memory");
}

TEST_F(ReteNodeTest, AndNodeJoinsFromBothSides) {
  MemoryNode left(&disk_, 0, false);
  MemoryNode right(&disk_, 0, false);
  MemoryNode out(&disk_, 0, true);
  // Join condition: left.$1 = right.$0.
  AndNode join(&left, &right, 1, 0, &meter_);
  left.AddSuccessor(join.LeftInput());
  right.AddSuccessor(join.RightInput());
  join.AddSuccessor(&out);
  left.mutable_store()->EnsureProbeIndex(1);
  right.mutable_store()->EnsureProbeIndex(0);

  // Left activation with empty right: nothing emitted.
  ASSERT_TRUE(left.Activate(Plus(Row(1, 7))).ok());
  EXPECT_EQ(out.store().size(), 0u);
  // Right activation joins with the stored left tuple.
  ASSERT_TRUE(right.Activate(Plus(Row(7, 100))).ok());
  ASSERT_EQ(out.store().size(), 1u);
  const Tuple joined = out.store().SnapshotForTesting()[0];
  ASSERT_EQ(joined.arity(), 4u);
  EXPECT_EQ(joined.value(0).AsInt64(), 1);   // left first
  EXPECT_EQ(joined.value(2).AsInt64(), 7);   // then right
  // Another left activation now joins against the stored right tuple.
  ASSERT_TRUE(left.Activate(Plus(Row(2, 7))).ok());
  EXPECT_EQ(out.store().size(), 2u);
  // Deletes flow with the same pairing.
  ASSERT_TRUE(left.Activate(Minus(Row(1, 7))).ok());
  EXPECT_EQ(out.store().size(), 1u);
}

TEST_F(ReteNodeTest, AndNodeDirectActivationIsAnError) {
  MemoryNode left(&disk_, 0, false);
  MemoryNode right(&disk_, 0, false);
  AndNode join(&left, &right, 0, 0, &meter_);
  EXPECT_EQ(join.Activate(Plus(Row(1, 1))).code(), StatusCode::kInternal);
}

TEST_F(ReteNodeTest, DescribeStringsAreInformative) {
  TConstNode tconst(
      2, 5, 9,
      Conjunction({PredicateTerm{0, rel::CompareOp::kNe, Value(int64_t{3})}}),
      &meter_);
  EXPECT_NE(tconst.Describe().find("$2 in [5,9]"), std::string::npos);
  EXPECT_NE(tconst.Describe().find("!= 3"), std::string::npos);
  MemoryNode left(&disk_, 0, false);
  MemoryNode right(&disk_, 0, false);
  AndNode join(&left, &right, 1, 0, &meter_);
  EXPECT_NE(join.Describe().find("left.$1 = right.$0"), std::string::npos);
}

}  // namespace
}  // namespace procsim::rete
