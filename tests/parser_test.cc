#include "relational/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "relational/executor.h"

namespace procsim::rel {
namespace {

using parser_internal::Lex;
using parser_internal::TokenKind;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenKindsAndValues) {
  auto tokens = Lex("retrieve (EMP.all) where EMP.age >= -3 and EMP.name != "
                    "\"Ann Smith\"");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  const auto& t = tokens.ValueOrDie();
  EXPECT_EQ(t[0].kind, TokenKind::kIdent);
  EXPECT_EQ(t[0].text, "retrieve");
  EXPECT_EQ(t[1].kind, TokenKind::kLParen);
  EXPECT_EQ(t[3].kind, TokenKind::kDot);
  // ">=" lexes as one operator token.
  const auto ge = std::find_if(t.begin(), t.end(), [](const auto& token) {
    return token.kind == TokenKind::kOp && token.text == ">=";
  });
  ASSERT_NE(ge, t.end());
  // Negative integer literal.
  const auto minus3 = std::find_if(t.begin(), t.end(), [](const auto& token) {
    return token.kind == TokenKind::kInteger;
  });
  ASSERT_NE(minus3, t.end());
  EXPECT_EQ(minus3->integer, -3);
  // String body excludes the quotes.
  const auto str = std::find_if(t.begin(), t.end(), [](const auto& token) {
    return token.kind == TokenKind::kString;
  });
  ASSERT_NE(str, t.end());
  EXPECT_EQ(str->text, "Ann Smith");
  EXPECT_EQ(t.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("EMP.age @ 3").ok());
  EXPECT_FALSE(Lex("name = \"unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
}

TEST(LexerTest, IntegerLiteralOutOfRangeIsAnError) {
  auto max = Lex("9223372036854775807 -9223372036854775808");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max.ValueOrDie()[0].integer, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(max.ValueOrDie()[1].integer, std::numeric_limits<int64_t>::min());

  auto positive = Lex("EMP.age = 99999999999999999999");
  ASSERT_FALSE(positive.ok());
  EXPECT_EQ(positive.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(positive.status().message().find("offset 10"), std::string::npos)
      << positive.status().ToString();

  auto negative = Lex("EMP.age > -9223372036854775809");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status().message().find("offset 10"), std::string::npos)
      << negative.status().ToString();
}

// ---------------------------------------------------------------------------
// Parser + planner against a catalog
// ---------------------------------------------------------------------------

class QuelParserTest : public ::testing::Test {
 protected:
  QuelParserTest()
      : disk_(4000, &meter_),
        catalog_(&disk_),
        executor_(&catalog_, &meter_),
        parser_(&catalog_) {
    Relation::Options emp_options;
    emp_options.tuple_width_bytes = 100;
    emp_options.btree_column = 0;
    emp_ = catalog_
               .CreateRelation("EMP",
                               Schema({{"empno", ValueType::kInt64},
                                       {"dept", ValueType::kInt64},
                                       {"job", ValueType::kInt64}}),
                               emp_options)
               .ValueOrDie();
    Relation::Options dept_options;
    dept_options.tuple_width_bytes = 100;
    dept_options.hash_column = 0;
    dept_ = catalog_
                .CreateRelation("DEPT",
                                Schema({{"dname", ValueType::kInt64},
                                        {"floor", ValueType::kInt64},
                                        {"site", ValueType::kInt64}}),
                                dept_options)
                .ValueOrDie();
    Relation::Options site_options;
    site_options.tuple_width_bytes = 100;
    site_options.hash_column = 0;
    site_ = catalog_
                .CreateRelation("SITE",
                                Schema({{"sid", ValueType::kInt64},
                                        {"city", ValueType::kInt64}}),
                                site_options)
                .ValueOrDie();
    for (int64_t e = 0; e < 60; ++e) {
      (void)emp_->Insert(Tuple({Value(e), Value(e % 6), Value(e % 3)}));
    }
    for (int64_t d = 0; d < 6; ++d) {
      (void)dept_->Insert(Tuple({Value(d), Value(d % 2), Value(d % 3)}));
    }
    for (int64_t s = 0; s < 3; ++s) {
      (void)site_->Insert(Tuple({Value(s), Value(s * 100)}));
    }
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  Catalog catalog_;
  Executor executor_;
  QuelParser parser_;
  Relation* emp_ = nullptr;
  Relation* dept_ = nullptr;
  Relation* site_ = nullptr;
};

TEST_F(QuelParserTest, SimpleSelectionWithRangeFolding) {
  auto query = parser_.Parse(
      "retrieve (EMP.all) where EMP.empno >= 10 and EMP.empno <= 19");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.ValueOrDie().base.relation, "EMP");
  EXPECT_EQ(query.ValueOrDie().base.lo, 10);
  EXPECT_EQ(query.ValueOrDie().base.hi, 19);
  EXPECT_TRUE(query.ValueOrDie().base.residual.empty());
  EXPECT_TRUE(query.ValueOrDie().joins.empty());
  EXPECT_EQ(executor_.Execute(query.ValueOrDie()).ValueOrDie().size(), 10u);
}

TEST_F(QuelParserTest, StrictBoundsAndEqualityFold) {
  auto query = parser_.Parse(
      "retrieve (EMP.all) where EMP.empno > 9 and EMP.empno < 20");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query.ValueOrDie().base.lo, 10);
  EXPECT_EQ(query.ValueOrDie().base.hi, 19);
  auto point = parser_.Parse("retrieve (EMP.all) where EMP.empno = 7");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point.ValueOrDie().base.lo, 7);
  EXPECT_EQ(point.ValueOrDie().base.hi, 7);
}

TEST_F(QuelParserTest, NonKeyRestrictionsBecomeResidual) {
  auto query = parser_.Parse(
      "retrieve (EMP.all) where EMP.empno <= 29 and EMP.job = 1");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query.ValueOrDie().base.residual.size(), 1u);
  // empno 0..29 with job == 1: 10 rows.
  EXPECT_EQ(executor_.Execute(query.ValueOrDie()).ValueOrDie().size(), 10u);
}

TEST_F(QuelParserTest, ReversedConstantComparisonIsMirrored) {
  // "10 <= EMP.empno" must mean empno >= 10.
  auto query = parser_.Parse(
      "retrieve (EMP.all) where 10 <= EMP.empno and 19 >= EMP.empno");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.ValueOrDie().base.lo, 10);
  EXPECT_EQ(query.ValueOrDie().base.hi, 19);
}

TEST_F(QuelParserTest, TwoWayJoinPlansHashProbe) {
  auto query = parser_.Parse(
      "retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and "
      "DEPT.floor = 1 and EMP.empno <= 29");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const ProcedureQuery& q = query.ValueOrDie();
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].relation, "DEPT");
  EXPECT_EQ(q.joins[0].probe_column, 1u);  // EMP.dept
  EXPECT_EQ(q.joins[0].residual.size(), 1u);
  // 30 emps, join always matches, floor==1 keeps odd depts: 15 rows.
  EXPECT_EQ(executor_.Execute(q).ValueOrDie().size(), 15u);
}

TEST_F(QuelParserTest, JoinDirectionIsNormalized) {
  // The equijoin written "DEPT.dname = EMP.dept" still probes DEPT.
  auto query = parser_.Parse(
      "retrieve (EMP.all, DEPT.all) where DEPT.dname = EMP.dept");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.ValueOrDie().joins.size(), 1u);
  EXPECT_EQ(query.ValueOrDie().joins[0].relation, "DEPT");
}

TEST_F(QuelParserTest, ThreeWayChain) {
  auto query = parser_.Parse(
      "retrieve (EMP.all, DEPT.all, SITE.all) where EMP.dept = DEPT.dname "
      "and DEPT.site = SITE.sid and EMP.empno <= 11");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const ProcedureQuery& q = query.ValueOrDie();
  ASSERT_EQ(q.joins.size(), 2u);
  EXPECT_EQ(q.joins[0].relation, "DEPT");
  EXPECT_EQ(q.joins[1].relation, "SITE");
  EXPECT_EQ(q.joins[1].probe_column, 5u);  // DEPT.site in EMP(3)++DEPT(3)
  const auto rows = executor_.Execute(q).ValueOrDie();
  EXPECT_EQ(rows.size(), 12u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.value(5).AsInt64(), row.value(6).AsInt64());
  }
}

TEST_F(QuelParserTest, ParsesTheExampleFromThePaper) {
  // Figure-1 style query (job codes as integers in this schema).
  auto query = parser_.Parse(
      "retrieve (EMP.all, DEPT.all)\n"
      "where EMP.dept = DEPT.dname\n"
      "  and EMP.job = 1\n"
      "  and DEPT.floor = 1");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_FALSE(executor_.Execute(query.ValueOrDie()).ValueOrDie().empty());
}

// --- error paths -------------------------------------------------------------

TEST_F(QuelParserTest, UnknownRelationOrColumn) {
  EXPECT_EQ(parser_.Parse("retrieve (NOPE.all)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(parser_.Parse("retrieve (EMP.all) where EMP.bogus = 1")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Qualification referencing a relation not in the target list.
  EXPECT_FALSE(
      parser_.Parse("retrieve (EMP.all) where DEPT.floor = 1").ok());
}

TEST_F(QuelParserTest, AnchorMustHaveBTree) {
  EXPECT_FALSE(parser_.Parse("retrieve (DEPT.all)").ok());
}

TEST_F(QuelParserTest, DisconnectedJoinGraphRejected) {
  EXPECT_FALSE(
      parser_.Parse("retrieve (EMP.all, DEPT.all) where EMP.job = 1").ok());
}

TEST_F(QuelParserTest, NonEquiJoinRejected) {
  EXPECT_EQ(parser_
                .Parse("retrieve (EMP.all, DEPT.all) where "
                       "EMP.dept < DEPT.dname")
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST_F(QuelParserTest, JoinWithoutHashIndexRejected) {
  // Joining on DEPT.floor (not the hashed column) cannot be planned.
  EXPECT_FALSE(parser_
                   .Parse("retrieve (EMP.all, DEPT.all) where "
                          "EMP.dept = DEPT.floor")
                   .ok());
}

TEST_F(QuelParserTest, SyntaxErrors) {
  EXPECT_FALSE(parser_.Parse("").ok());
  EXPECT_FALSE(parser_.Parse("fetch (EMP.all)").ok());
  EXPECT_FALSE(parser_.Parse("retrieve EMP.all").ok());
  EXPECT_FALSE(parser_.Parse("retrieve (EMP.all) where").ok());
  EXPECT_FALSE(parser_.Parse("retrieve (EMP.all) where EMP.job").ok());
  EXPECT_FALSE(parser_.Parse("retrieve (EMP.all) garbage").ok());
  EXPECT_FALSE(parser_.Parse("retrieve (EMP.all) where 1 = 2").ok());
}

TEST_F(QuelParserTest, ParsedQueryRoundTripsThroughStrategies) {
  // A parsed procedure behaves identically to a hand-built one.
  auto parsed = parser_.Parse(
      "retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and "
      "EMP.empno >= 12 and EMP.empno <= 23");
  ASSERT_TRUE(parsed.ok());
  ProcedureQuery manual;
  manual.base = BaseSelection{"EMP", 12, 23, Conjunction{}};
  JoinStage stage;
  stage.relation = "DEPT";
  stage.probe_column = 1;
  manual.joins.push_back(stage);
  auto canon = [](std::vector<Tuple> rows) {
    std::vector<std::string> out;
    for (const Tuple& row : rows) out.push_back(row.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(executor_.Execute(parsed.ValueOrDie()).ValueOrDie()),
            canon(executor_.Execute(manual).ValueOrDie()));
}

}  // namespace
}  // namespace procsim::rel
