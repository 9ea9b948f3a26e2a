#include <gtest/gtest.h>

#include <limits>

#include "relational/tuple.h"
#include "relational/value.h"

namespace procsim::rel {
namespace {

TEST(ValueTest, TypeTagsAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s("hello");
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(ValueTest, ComparisonWithinType) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(int64_t{2}) == Value(int64_t{2}));
  EXPECT_TRUE(Value("abc") < Value("abd"));
  EXPECT_TRUE(Value(1.0) < Value(1.5));
}

TEST(ValueTest, CrossTypeComparisonOrdersByTag) {
  // Deterministic, never equal: int64 < double < string by tag index.
  EXPECT_TRUE(Value(int64_t{5}) < Value(0.1));
  EXPECT_TRUE(Value(0.1) < Value("a"));
  EXPECT_FALSE(Value(int64_t{5}) == Value(5.0));
}

TEST(ValueTest, SerializeRoundTrip) {
  for (const Value& value :
       {Value(int64_t{-7}), Value(2.25), Value("päyload with ünicode"),
        Value(std::string())}) {
    std::vector<uint8_t> bytes(value.SerializedSize());
    EXPECT_EQ(value.SerializeInto(bytes.data()), bytes.data() + bytes.size());
    std::size_t cursor = 0;
    Result<Value> restored = Value::DeserializeFrom(bytes, &cursor);
    ASSERT_TRUE(restored.ok());
    EXPECT_TRUE(restored.ValueOrDie() == value);
    EXPECT_EQ(cursor, bytes.size());
  }
}

TEST(ValueTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> bytes{99};  // unknown tag
  std::size_t cursor = 0;
  EXPECT_FALSE(Value::DeserializeFrom(bytes, &cursor).ok());
  bytes = {0, 1, 2};  // int64 tag but truncated payload
  cursor = 0;
  EXPECT_FALSE(Value::DeserializeFrom(bytes, &cursor).ok());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{10}).Hash(), Value(int64_t{10}).Hash());
  EXPECT_NE(Value(int64_t{10}).Hash(), Value(int64_t{11}).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());

  // Signed zeros compare equal, so they must hash equally.
  EXPECT_EQ(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());

  // NaN equals only NaN (whatever its payload), sorts after every number,
  // and every NaN hashes alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = -std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(Value(nan), Value(nan));
  EXPECT_EQ(Value(nan), Value(other_nan));
  EXPECT_EQ(Value(nan).Hash(), Value(other_nan).Hash());
  for (const double number :
       {0.0, -1.5, 1e300, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(Value(nan) == Value(number)) << number;
    EXPECT_EQ(Value(number).Compare(Value(nan)), std::strong_ordering::less)
        << number;
    EXPECT_EQ(Value(nan).Compare(Value(number)), std::strong_ordering::greater)
        << number;
  }
}

// The hashes are part of the page-image contract (they order
// ivm::DeltaSet::NetRows, hence AVM's patches), so they are pinned exactly:
// FNV-1a over the encoded form, with -0.0 and NaN canonicalized.
TEST(ValueTest, HashValuesArePinned) {
  EXPECT_EQ(Value(int64_t{10}).Hash(), 0x2922270e0d3967f3ULL);
  EXPECT_EQ(Value(int64_t{-1}).Hash(), 0x4a0f8feb970db531ULL);
  EXPECT_EQ(Value(0.0).Hash(), 0x4f987be6ba3a2ea6ULL);
  EXPECT_EQ(Value(-0.0).Hash(), 0x4f987be6ba3a2ea6ULL);
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).Hash(),
            0x519d76e6bbf1c4cfULL);
  EXPECT_EQ(Value("x").Hash(), 0x9bb832cb6accdf5eULL);
}

TEST(SchemaTest, ColumnLookup) {
  Schema schema({Column{"a", ValueType::kInt64},
                 Column{"b", ValueType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.ColumnIndex("b").ValueOrDie(), 1u);
  EXPECT_EQ(schema.ColumnIndex("z").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ConcatAndPrefix) {
  Schema left({Column{"a", ValueType::kInt64}});
  Schema right({Column{"b", ValueType::kInt64}});
  Schema joined = Schema::Concat(left.WithPrefix("R1"), right.WithPrefix("R2"));
  EXPECT_EQ(joined.num_columns(), 2u);
  EXPECT_EQ(joined.column(0).name, "R1.a");
  EXPECT_EQ(joined.column(1).name, "R2.b");
}

TEST(TupleTest, TypeChecksAgainstSchema) {
  Schema schema({Column{"a", ValueType::kInt64},
                 Column{"b", ValueType::kString}});
  EXPECT_TRUE(Tuple({Value(int64_t{1}), Value("x")}).TypeChecks(schema));
  EXPECT_FALSE(Tuple({Value("x"), Value(int64_t{1})}).TypeChecks(schema));
  EXPECT_FALSE(Tuple({Value(int64_t{1})}).TypeChecks(schema));
}

TEST(TupleTest, SerializeRoundTripWithPadding) {
  // A page rebuilt from its image (Page::Deserialize) stores each record's
  // zero tail out to the paper's S: decoding must ignore it.
  Tuple tuple({Value(int64_t{1}), Value("abc"), Value(2.0)});
  const std::vector<uint8_t> natural = tuple.Serialize();
  std::vector<uint8_t> padded = natural;
  padded.resize(100, 0);
  EXPECT_LT(natural.size(), padded.size());
  Result<Tuple> from_padded = Tuple::Deserialize(padded);
  ASSERT_TRUE(from_padded.ok());
  EXPECT_TRUE(from_padded.ValueOrDie() == tuple);
  // One column alone, stepping over a string before it.
  for (std::size_t column = 0; column < tuple.arity(); ++column) {
    Result<Value> value = Tuple::DeserializeValue(padded, column);
    ASSERT_TRUE(value.ok());
    EXPECT_TRUE(value.ValueOrDie() == tuple.value(column));
  }
  EXPECT_EQ(Tuple::DeserializeValue(padded, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleTest, ConcatPreservesOrder) {
  Tuple left({Value(int64_t{1}), Value(int64_t{2})});
  Tuple right({Value(int64_t{3})});
  Tuple joined = Tuple::Concat(left, right);
  ASSERT_EQ(joined.arity(), 3u);
  EXPECT_EQ(joined.value(0).AsInt64(), 1);
  EXPECT_EQ(joined.value(2).AsInt64(), 3);
}

TEST(TupleTest, HashStableAndDiscriminating) {
  Tuple a({Value(int64_t{1}), Value("x")});
  Tuple b({Value(int64_t{1}), Value("x")});
  Tuple c({Value(int64_t{2}), Value("x")});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(TupleTest, SetValueMutates) {
  Tuple tuple({Value(int64_t{1})});
  tuple.set_value(0, Value(int64_t{9}));
  EXPECT_EQ(tuple.value(0).AsInt64(), 9);
}

}  // namespace
}  // namespace procsim::rel
