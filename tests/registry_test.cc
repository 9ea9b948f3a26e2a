#include "proc/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "proc/update_cache_avm.h"
#include "relational/catalog.h"
#include "relational/executor.h"

namespace procsim::proc {
namespace {

using rel::Conjunction;
using rel::ProcedureQuery;
using rel::Tuple;
using rel::Value;

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : disk_(4000, &meter_),
        catalog_(&disk_),
        executor_(&catalog_, &meter_),
        strategy_(&catalog_, &executor_, &meter_, 100),
        registry_(&strategy_) {
    rel::Relation::Options options;
    options.tuple_width_bytes = 100;
    options.btree_column = 0;
    table_ = catalog_
                 .CreateRelation("T",
                                 rel::Schema({{"k", rel::ValueType::kInt64},
                                              {"v", rel::ValueType::kInt64}}),
                                 options)
                 .ValueOrDie();
    for (int64_t i = 0; i < 30; ++i) {
      rids_.push_back(
          table_->Insert(Tuple({Value(i), Value(i * 2)})).ValueOrDie());
    }
  }

  ProcedureQuery Range(int64_t lo, int64_t hi) {
    ProcedureQuery query;
    query.base = rel::BaseSelection{"T", lo, hi, Conjunction{}};
    return query;
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  UpdateCacheAvmStrategy strategy_;
  ProcedureRegistry registry_;
  rel::Relation* table_ = nullptr;
  std::vector<storage::RecordId> rids_;
};

TEST_F(RegistryTest, MultiQueryProcedureConcatenatesMembers) {
  // §1: a procedure is a *collection* of statements — here two disjoint
  // selections stored under one name.
  ASSERT_TRUE(registry_.Define("both_ends", {Range(0, 4), Range(25, 29)}).ok());
  ASSERT_TRUE(registry_.Prepare().ok());
  EXPECT_EQ(registry_.MemberCount("both_ends"), 2u);
  auto value = registry_.Access("both_ends");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.ValueOrDie().size(), 10u);
  // Concatenation preserves definition order: low range first.
  EXPECT_EQ(value.ValueOrDie().front().value(0).AsInt64(), 0);
  EXPECT_EQ(value.ValueOrDie().back().value(0).AsInt64(), 29);
}

TEST_F(RegistryTest, MembersAreMaintainedIndividually) {
  ASSERT_TRUE(registry_.Define("p", {Range(0, 9), Range(20, 29)}).ok());
  ASSERT_TRUE(registry_.Prepare().ok());
  // Move key 5 to 22: leaves member 0, enters member 1.
  const Tuple old_tuple = table_->Read(rids_[5]).ValueOrDie();
  const Tuple new_tuple({Value(int64_t{22}), Value(int64_t{0})});
  {
    storage::MeteringGuard guard(&disk_);
    ASSERT_TRUE(table_->UpdateInPlace(rids_[5], new_tuple).ok());
  }
  ivm::ChangeBatch changes;
  changes.AddDelete(old_tuple);
  changes.AddInsert(new_tuple);
  strategy_.OnBatch("T", changes);
  ASSERT_TRUE(strategy_.OnTransactionEnd().ok());
  auto value = registry_.Access("p");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.ValueOrDie().size(), 20u);  // 9 in first + 11 in second
}

TEST_F(RegistryTest, MultipleNamedProcedures) {
  ASSERT_TRUE(registry_.Define("a", {Range(0, 9)}).ok());
  ASSERT_TRUE(registry_.Define("b", {Range(10, 19)}).ok());
  ASSERT_TRUE(registry_.Prepare().ok());
  EXPECT_EQ(registry_.Access("a").ValueOrDie().size(), 10u);
  EXPECT_EQ(registry_.Access("b").ValueOrDie().size(), 10u);
  EXPECT_EQ(registry_.Names(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(RegistryTest, ErrorPaths) {
  EXPECT_EQ(registry_.Define("empty", {}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry_.Define("dup", {Range(0, 1)}).ok());
  EXPECT_EQ(registry_.Define("dup", {Range(2, 3)}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(registry_.Prepare().ok());
  EXPECT_EQ(registry_.Access("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry_.MemberCount("missing"), 0u);
}

}  // namespace
}  // namespace procsim::proc
