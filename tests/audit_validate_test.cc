#include "audit/validate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ivm/delta.h"
#include "proc/hybrid.h"
#include "proc/update_cache_rvm.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "rete/network.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/page.h"
#include "util/cost_meter.h"

namespace procsim::audit {
namespace {

using rel::Conjunction;
using rel::Tuple;
using rel::Value;

storage::RecordId Rid(uint32_t n) {
  storage::RecordId rid;
  rid.page_id = n;
  rid.slot = static_cast<uint16_t>(n % 7);
  return rid;
}

// ---------------------------------------------------------------------------
// B-tree: a planted key-order violation must be detected and named.

TEST(ValidateBTreeTest, CleanTreePasses) {
  storage::SimulatedDisk disk(4000, /*meter=*/nullptr);
  storage::BTree tree(&disk, 20);
  for (int64_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(tree.Insert(key, Rid(static_cast<uint32_t>(key))).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(ValidateBTreeTest, DetectsCorruptedLeafOrder) {
  storage::SimulatedDisk disk(4000, /*meter=*/nullptr);
  storage::BTree tree(&disk, 20);
  for (int64_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(tree.Insert(key, Rid(static_cast<uint32_t>(key))).ok());
  }
  ASSERT_TRUE(tree.CorruptLeafOrderForTesting().ok());
  const Status status = tree.CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("sorted"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Buffer cache: an LRU churned past capacity stays consistent.

TEST(ValidateBufferCacheTest, CleanCachePasses) {
  storage::BufferCache cache(4);
  for (uint32_t page_id = 0; page_id < 10; ++page_id) cache.Touch(page_id);
  cache.Touch(8);
  EXPECT_TRUE(cache.CheckConsistency().ok());
}

// ---------------------------------------------------------------------------
// Page: round-trip validation.

TEST(ValidatePageTest, RoundTripsLiveRecords) {
  storage::Page page(4000);
  const std::vector<uint8_t> a(40, 0xAB);
  const std::vector<uint8_t> b(60, 0xCD);
  const uint16_t slot_a =
      page.Insert(a.data(), static_cast<uint32_t>(a.size())).ValueOrDie();
  (void)page.Insert(b.data(), static_cast<uint32_t>(b.size())).ValueOrDie();
  ASSERT_TRUE(page.Delete(slot_a).ok());  // leave a tombstone behind
  EXPECT_TRUE(ValidatePage(page).ok());
}

TEST(ValidatePageTest, RoundTripsPaddedTuples) {
  // Paper-width records: each tuple stores its natural bytes and accounts
  // S = 100.  The reloaded page stores the zero tails too, which is the
  // same logical record, not a changed payload.
  storage::Page page(4000);
  std::vector<uint16_t> slots;
  for (int64_t i = 0; i < 40; ++i) {
    const std::vector<uint8_t> bytes =
        Tuple({Value(i), Value("name"), Value(i * 0.5)}).Serialize();
    ASSERT_LT(bytes.size(), 100u);
    slots.push_back(
        page.Insert(bytes.data(), static_cast<uint32_t>(bytes.size()), 100)
            .ValueOrDie());
  }
  EXPECT_FALSE(page.Fits(100));
  ASSERT_TRUE(page.Delete(slots[3]).ok());
  const Status status = ValidatePage(page);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ---------------------------------------------------------------------------
// Rete: a desynchronized memory (α or β) must be caught by ValidateState.

class ValidateReteTest : public ::testing::Test {
 protected:
  ValidateReteTest()
      : disk_(4000, /*meter=*/nullptr),
        catalog_(&disk_),
        executor_(&catalog_, &meter_) {
    rel::Relation::Options r1_options;
    r1_options.tuple_width_bytes = 100;
    r1_options.btree_column = 0;
    r1_ = catalog_
              .CreateRelation("R1",
                              rel::Schema({{"key", rel::ValueType::kInt64},
                                           {"a", rel::ValueType::kInt64}}),
                              r1_options)
              .ValueOrDie();
    rel::Relation::Options r2_options;
    r2_options.tuple_width_bytes = 100;
    r2_options.hash_column = 0;
    r2_ = catalog_
              .CreateRelation("R2",
                              rel::Schema({{"b", rel::ValueType::kInt64},
                                           {"c", rel::ValueType::kInt64}}),
                              r2_options)
              .ValueOrDie();
    for (int64_t i = 0; i < 40; ++i) {
      (void)r1_->Insert(Tuple({Value(i), Value(i % 5)}));
    }
    for (int64_t i = 0; i < 5; ++i) {
      (void)r2_->Insert(Tuple({Value(i), Value(i * 11)}));
    }
  }

  rel::ProcedureQuery P1(int64_t lo, int64_t hi) {
    rel::ProcedureQuery query;
    query.base = rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    return query;
  }

  rel::ProcedureQuery P2(int64_t lo, int64_t hi) {
    rel::ProcedureQuery query = P1(lo, hi);
    rel::JoinStage stage;
    stage.relation = "R2";
    stage.probe_column = 1;  // R1.a probes R2.b
    query.joins.push_back(stage);
    return query;
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  rel::Relation* r1_ = nullptr;
  rel::Relation* r2_ = nullptr;
};

TEST_F(ValidateReteTest, CleanNetworkPasses) {
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(3, 12)).ok());
  ASSERT_TRUE(network.AddProcedure(P2(5, 20)).ok());
  EXPECT_TRUE(network.ValidateState().ok());
  // Still clean after maintenance traffic: modify the base table, then
  // notify the network of the delete/insert pair (the validator recomputes
  // each memory from the catalog, so base table and tokens must agree).
  storage::RecordId victim;
  Tuple old_tuple;
  ASSERT_TRUE(r1_->Scan([&](storage::RecordId rid, const Tuple& tuple) {
                    victim = rid;
                    old_tuple = tuple;
                    return false;
                  })
                  .ok());
  const Tuple new_tuple({old_tuple.value(0), Value(int64_t{4})});
  ASSERT_TRUE(r1_->UpdateInPlace(victim, new_tuple).ok());
  ivm::ChangeBatch changes;
  changes.AddDelete(old_tuple);
  changes.AddInsert(new_tuple);
  ASSERT_TRUE(network.OnChanges("R1", changes).ok());
  EXPECT_TRUE(network.ValidateState().ok());
}

TEST_F(ValidateReteTest, DetectsDesynchronizedAlphaMemory) {
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  rete::MemoryNode* alpha = network.AddProcedure(P1(3, 12)).ValueOrDie();
  ASSERT_FALSE(alpha->is_beta());
  // Plant a tuple that no recomputation of the selection would produce.
  ASSERT_TRUE(alpha->mutable_store()
                  ->Insert(Tuple({Value(int64_t{999}), Value(int64_t{0})}))
                  .ok());
  const Status status = network.ValidateState();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("spurious"), std::string::npos)
      << status.ToString();
}

TEST_F(ValidateReteTest, DetectsDesynchronizedBetaMemory) {
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  rete::MemoryNode* beta = network.AddProcedure(P2(0, 30)).ValueOrDie();
  ASSERT_TRUE(beta->is_beta());
  // Remove one legitimate join result: the β-memory no longer equals the
  // join of its inputs.
  std::vector<Tuple> contents = beta->mutable_store()->SnapshotForTesting();
  ASSERT_FALSE(contents.empty());
  ASSERT_TRUE(beta->mutable_store()->Remove(contents.front()).ok());
  const Status status = network.ValidateState();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("missing"), std::string::npos)
      << status.ToString();
}

TEST_F(ValidateReteTest, DetectsDoubleDivergenceBelowPrintPrecision) {
  rel::Relation::Options options;
  options.tuple_width_bytes = 100;
  options.btree_column = 0;
  rel::Relation* r3 =
      catalog_
          .CreateRelation("R3",
                          rel::Schema({{"key", rel::ValueType::kInt64},
                                       {"d", rel::ValueType::kDouble}}),
                          options)
          .ValueOrDie();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(r3->Insert(Tuple({Value(i), Value(1e-9)})).ok());
  }
  rete::ReteNetwork network(&catalog_, &meter_, 100);
  rel::ProcedureQuery query;
  query.base = rel::BaseSelection{"R3", 0, 9, Conjunction{}};
  rete::MemoryNode* alpha = network.AddProcedure(query).ValueOrDie();
  ASSERT_TRUE(network.ValidateState().ok());
  // Swap one stored tuple for one that prints alike: ToString rounds both
  // doubles to 0.000000, but their bytes differ.
  const Tuple stored({Value(int64_t{3}), Value(1e-9)});
  const Tuple planted({Value(int64_t{3}), Value(2e-9)});
  ASSERT_EQ(stored.ToString(), planted.ToString());
  ASSERT_TRUE(alpha->mutable_store()->Remove(stored).ok());
  ASSERT_TRUE(alpha->mutable_store()->Insert(planted).ok());
  const Status status = network.ValidateState();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("missing"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// I-locks and the invalidation log.

TEST(ValidateILockTableTest, CleanTablePasses) {
  proc::ILockTable locks;
  locks.AddIntervalLock(/*owner=*/0, "R1", /*column=*/0, 10, 20);
  locks.AddIntervalLock(/*owner=*/2, "R1", /*column=*/0, 15, 15);
  EXPECT_TRUE(ValidateILockTable(locks, /*procedure_count=*/3).ok());
}

TEST(ValidateILockTableTest, DetectsDanglingOwner) {
  proc::ILockTable locks;
  locks.AddIntervalLock(/*owner=*/7, "R1", /*column=*/0, 10, 20);
  const Status status = ValidateILockTable(locks, /*procedure_count=*/3);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("dangling"), std::string::npos)
      << status.ToString();
}

TEST(ValidateILockTableTest, DetectsEmptyInterval) {
  proc::ILockTable locks;
  locks.AddIntervalLock(/*owner=*/0, "R1", /*column=*/0, 20, 10);
  const Status status = ValidateILockTable(locks, /*procedure_count=*/3);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("interval"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Cache budget: accounting drift must be caught at quiesce.

TEST(ValidateCacheBudgetTest, CleanBudgetPasses) {
  proc::CacheBudget budget(/*budget_bytes=*/1000, /*shards=*/4);
  const proc::CacheBudget::EntryId a = budget.Register("proc/a");
  const proc::CacheBudget::EntryId b = budget.Register("proc/b");
  budget.Admit(a, 100);
  budget.Admit(b, 120);
  EXPECT_TRUE(ValidateCacheBudget(budget).ok());
  // Still clean after an eviction cycle: overflow shard 0 (slice = 250).
  budget.Resize(a, 600);  // forces a's shard over budget -> a is evicted
  EXPECT_FALSE(budget.EntryIsLive(a));
  EXPECT_TRUE(ValidateCacheBudget(budget).ok());
}

TEST(ValidateCacheBudgetTest, DetectsAccountingDrift) {
  proc::CacheBudget budget(/*budget_bytes=*/0, /*shards=*/2);
  const proc::CacheBudget::EntryId a = budget.Register("proc/a");
  budget.Admit(a, 64);
  ASSERT_TRUE(ValidateCacheBudget(budget).ok());
  budget.CorruptAccountingForTesting(/*shard=*/0, /*delta=*/13);
  const Status status = ValidateCacheBudget(budget);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("drift"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Relation cross-checks: heap, B-tree and hash index must agree.

TEST_F(ValidateReteTest, ValidateCatalogPassesOnCleanDatabase) {
  EXPECT_TRUE(ValidateCatalog(catalog_).ok());
}

TEST_F(ValidateReteTest, DetectsIndexEntryMissingForLiveRecord) {
  // Remove one B-tree entry behind the relation's back: the record is still
  // live in the heap, so the cross-check must flag the divergence.
  storage::BTree* btree = r1_->mutable_btree();
  ASSERT_NE(btree, nullptr);
  bool removed = false;
  ASSERT_TRUE(r1_->Scan([&](storage::RecordId rid, const Tuple& tuple) {
                    removed = btree->Delete(tuple.value(0).AsInt64(), rid).ok();
                    return false;  // first record only
                  })
                  .ok());
  ASSERT_TRUE(removed);
  const Status status = ValidateRelation(*r1_, catalog_.disk());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("btree"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Engine sweep: Hybrid's private sub-strategies are validated too.

TEST(ValidateEngineTest, ChecksHybridsPrivateReteNetwork) {
  txn::TxnEngine::Options options;
  options.model = cost::ProcModel::kModel2;
  // A small database whose update rate is low enough (k = 10 update
  // transactions per q = 100 accesses) that Hybrid routes P2 to RVM.
  options.params.N = 160;
  options.params.N1 = 4;
  options.params.N2 = 4;
  options.params.f = 0.08;
  options.params.k = 10;
  Result<std::unique_ptr<txn::TxnEngine>> created =
      txn::TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  txn::TxnEngine& engine = *created.ValueOrDie();
  ASSERT_TRUE(ValidateEngine(engine).ok());

  const proc::HybridStrategy* hybrid = nullptr;
  for (const auto& strategy : engine.strategies().all) {
    hybrid = dynamic_cast<const proc::HybridStrategy*>(strategy.get());
    if (hybrid != nullptr) break;
  }
  ASSERT_NE(hybrid, nullptr);
  const auto& rvm = static_cast<const proc::UpdateCacheRvmStrategy&>(
      *hybrid->subs()[static_cast<std::size_t>(
          cost::Strategy::kUpdateCacheRvm)]);
  ASSERT_FALSE(rvm.procedures().empty()) << "Hybrid routed nothing to RVM";

  // Re-announce an R1 tuple of one of its procedures' intervals to Hybrid's
  // network alone: its α-memory now holds the tuple twice, the relation
  // once, and the top-level RVM network is untouched.  (network() is
  // read-only by design; the cast is the deliberate corruption.)
  const rel::BaseSelection& base = rvm.procedures().front().query.base;
  ivm::ChangeBatch planted;
  ASSERT_TRUE(engine.database()
                  ->catalog->GetRelation("R1")
                  .ValueOrDie()
                  ->BTreeRange(base.lo, base.hi,
                               [&](storage::RecordId, const Tuple& tuple) {
                                 planted.AddInsert(tuple);
                                 return false;
                               })
                  .ok());
  ASSERT_FALSE(planted.empty());
  ASSERT_TRUE(const_cast<rete::ReteNetwork*>(rvm.network())
                  ->OnChanges("R1", planted)
                  .ok());
  EXPECT_TRUE(engine.strategies().rvm->network()->ValidateState().ok());
  const Status status = ValidateEngine(engine);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("spurious"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace procsim::audit
