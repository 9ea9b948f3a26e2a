#include "rete/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "ivm/delta.h"
#include "obs/metrics.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace procsim::rete {
namespace {

using rel::Conjunction;
using rel::JoinStage;
using rel::PredicateTerm;
using rel::ProcedureQuery;
using rel::Tuple;
using rel::Value;

std::vector<std::string> Canon(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// One-change notifications through the network's only entry point.
Status InsertToken(ReteNetwork* network, const std::string& relation,
                   const Tuple& tuple) {
  ivm::ChangeBatch changes;
  changes.AddInsert(tuple);
  return network->OnChanges(relation, changes);
}
Status DeleteToken(ReteNetwork* network, const std::string& relation,
                   const Tuple& tuple) {
  ivm::ChangeBatch changes;
  changes.AddDelete(tuple);
  return network->OnChanges(relation, changes);
}

// The paper's running example (figure 1): EMP/DEPT with the PROGS1 and
// CLERKS1 views sharing the "DEPT.floor = 1" subexpression — realized here
// with the join-stage residual on DEPT, plus R1/R2/R3-style schemas for the
// model-2 structure of figure 16.
class ReteTest : public ::testing::Test {
 protected:
  ReteTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
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
                                           {"c", rel::ValueType::kInt64},
                                           {"sel2", rel::ValueType::kInt64}}),
                              r2_options)
              .ValueOrDie();
    rel::Relation::Options r3_options;
    r3_options.tuple_width_bytes = 100;
    r3_options.hash_column = 0;
    r3_ = catalog_
              .CreateRelation("R3",
                              rel::Schema({{"d", rel::ValueType::kInt64},
                                           {"p", rel::ValueType::kInt64}}),
                              r3_options)
              .ValueOrDie();
    for (int64_t i = 0; i < 50; ++i) {
      rids_.push_back(
          r1_->Insert(Tuple({Value(i), Value(i % 5)})).ValueOrDie());
    }
    for (int64_t i = 0; i < 5; ++i) {
      (void)r2_->Insert(Tuple({Value(i), Value(i % 3), Value(i % 2)}));
    }
    for (int64_t i = 0; i < 3; ++i) {
      (void)r3_->Insert(Tuple({Value(i), Value(i * 7)}));
    }
  }

  ProcedureQuery P1(int64_t lo, int64_t hi) {
    ProcedureQuery query;
    query.base = rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    return query;
  }

  ProcedureQuery P2Model1(int64_t lo, int64_t hi, int64_t sel2) {
    ProcedureQuery query = P1(lo, hi);
    JoinStage stage;
    stage.relation = "R2";
    stage.probe_column = 1;
    stage.residual =
        Conjunction({PredicateTerm{2, rel::CompareOp::kEq, Value(sel2)}});
    query.joins.push_back(stage);
    return query;
  }

  ProcedureQuery P2Model2(int64_t lo, int64_t hi, int64_t sel2) {
    ProcedureQuery query = P2Model1(lo, hi, sel2);
    JoinStage stage;
    stage.relation = "R3";
    stage.probe_column = 3;  // R2.c within R1(2) ++ R2(3)
    query.joins.push_back(stage);
    return query;
  }

  void FeedUpdate(std::size_t index, ReteNetwork* network, int64_t new_key,
                  int64_t new_a) {
    const Tuple old_tuple = r1_->Read(rids_[index]).ValueOrDie();
    const Tuple new_tuple({Value(new_key), Value(new_a)});
    ASSERT_TRUE(r1_->UpdateInPlace(rids_[index], new_tuple).ok());
    ASSERT_TRUE(DeleteToken(network, "R1", old_tuple).ok());
    ASSERT_TRUE(InsertToken(network, "R1", new_tuple).ok());
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  rel::Relation* r1_ = nullptr;
  rel::Relation* r2_ = nullptr;
  rel::Relation* r3_ = nullptr;
  std::vector<storage::RecordId> rids_;
};

TEST_F(ReteTest, P1MemoryHoldsSelectionResult) {
  ReteNetwork network(&catalog_, &meter_, 100);
  auto memory = network.AddProcedure(P1(10, 19));
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  EXPECT_EQ(memory.ValueOrDie()->store().size(), 10u);
  EXPECT_FALSE(memory.ValueOrDie()->is_beta());
  EXPECT_EQ(network.stats().tconst_nodes, 1u);
  EXPECT_EQ(network.stats().alpha_memories, 1u);
  EXPECT_EQ(network.stats().and_nodes, 0u);
}

TEST_F(ReteTest, P2Model1StructureMatchesFigure3) {
  ReteNetwork network(&catalog_, &meter_, 100);
  auto memory = network.AddProcedure(P2Model1(0, 9, 1));
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  // Two t-const chains (R1 selection, R2 selection), one and-node, one
  // β-memory holding the join result.
  EXPECT_EQ(network.stats().tconst_nodes, 2u);
  EXPECT_EQ(network.stats().alpha_memories, 2u);
  EXPECT_EQ(network.stats().and_nodes, 1u);
  EXPECT_EQ(network.stats().beta_memories, 1u);
  EXPECT_TRUE(memory.ValueOrDie()->is_beta());
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model1(0, 9, 1)).ValueOrDie()));
}

TEST_F(ReteTest, P2Model2IsRightDeep) {
  // Figure 16: the right input of the top and-node is a β-memory holding
  // σ_sel2(R2) ⋈ R3.
  ReteNetwork network(&catalog_, &meter_, 100);
  auto memory = network.AddProcedure(P2Model2(0, 9, 1));
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  EXPECT_EQ(network.stats().tconst_nodes, 3u);  // R1, R2, R3 selections
  EXPECT_EQ(network.stats().alpha_memories, 3u);
  EXPECT_EQ(network.stats().and_nodes, 2u);
  EXPECT_EQ(network.stats().beta_memories, 2u);  // inner join + result
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model2(0, 9, 1)).ValueOrDie()));
}

TEST_F(ReteTest, SharedSelectionSubexpressionIsReused) {
  // A P2 procedure whose C_f(R1) equals a P1 procedure's query shares the
  // t-const chain and α-memory (the paper's SF mechanism).
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(10, 19)).ok());
  ASSERT_TRUE(network.AddProcedure(P2Model1(10, 19, 1)).ok());
  EXPECT_EQ(network.stats().tconst_nodes, 2u);  // R1 shared + R2's own
  EXPECT_EQ(network.stats().alpha_memories, 2u);
  EXPECT_GE(network.stats().shared_subexpression_hits, 1u);
  // A P2 with a different base interval creates its own R1 chain but still
  // shares the identical R2 selection subexpression.
  ASSERT_TRUE(network.AddProcedure(P2Model1(20, 29, 1)).ok());
  EXPECT_EQ(network.stats().tconst_nodes, 3u);
  EXPECT_GE(network.stats().shared_subexpression_hits, 2u);
}

TEST_F(ReteTest, IdenticalJoinTailIsShared) {
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P2Model2(0, 9, 1)).ok());
  const std::size_t tails_before = network.stats().beta_memories;
  // Same R2/R3 tail, different base selection: inner β-memory reused.
  ASSERT_TRUE(network.AddProcedure(P2Model2(20, 29, 1)).ok());
  EXPECT_EQ(network.stats().beta_memories, tails_before + 1);  // result only
  EXPECT_GE(network.stats().shared_subexpression_hits, 1u);

  // A tail that differs only in its R3 stage's residual is a new tail: its
  // own σ(R3) α-memory, R2 ⋈ R3 β-memory and result β-memory.
  ProcedureQuery other_r3 = P2Model2(20, 29, 1);
  other_r3.joins[1].residual =
      Conjunction({PredicateTerm{1, rel::CompareOp::kEq, Value(int64_t{0})}});
  const std::size_t alphas_before = network.stats().alpha_memories;
  const std::size_t betas_before = network.stats().beta_memories;
  auto memory = network.AddProcedure(other_r3);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  EXPECT_EQ(network.stats().alpha_memories, alphas_before + 1);
  EXPECT_EQ(network.stats().beta_memories, betas_before + 2);
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(other_r3).ValueOrDie()));
}

TEST_F(ReteTest, InsertTokenFlowsToMemories) {
  ReteNetwork network(&catalog_, &meter_, 100);
  auto p1 = network.AddProcedure(P1(10, 19));
  auto p2 = network.AddProcedure(P2Model1(10, 19, 1));
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  const std::size_t before1 = p1.ValueOrDie()->store().size();
  const std::size_t before2 = p2.ValueOrDie()->store().size();
  // Move a tuple into the interval, joining R2.b = 1 (sel2 of b=1 is 1 ✓).
  FeedUpdate(30, &network, 15, 1);
  EXPECT_EQ(p1.ValueOrDie()->store().size(), before1 + 1);
  EXPECT_EQ(p2.ValueOrDie()->store().size(), before2 + 1);
}

TEST_F(ReteTest, DeleteTokenRemovesDerivedTuples) {
  ReteNetwork network(&catalog_, &meter_, 100);
  auto p2 = network.AddProcedure(P2Model1(10, 19, 1));
  ASSERT_TRUE(p2.ok());
  const std::size_t before = p2.ValueOrDie()->store().size();
  ASSERT_GT(before, 0u);
  // Move a tuple that is inside the interval out of it.
  FeedUpdate(11, &network, 45, 0);
  // Key 11 had a = 1 (11 % 5); if it joined with sel2=1 it is now gone.
  EXPECT_EQ(Canon(p2.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model1(10, 19, 1)).ValueOrDie()));
}

TEST_F(ReteTest, TokensOutsideEveryIntervalAreFreeAndIgnored) {
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(10, 19)).ok());
  meter_.Reset();
  ASSERT_TRUE(InsertToken(&network, "R1",
                          Tuple({Value(int64_t{45}), Value(int64_t{0})}))
                  .ok());
  // The root's discrimination index rejects it without charging anything.
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
}

TEST_F(ReteTest, UnknownRelationTokensIgnored) {
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(0, 5)).ok());
  EXPECT_TRUE(InsertToken(&network, "ZZZ", Tuple({Value(int64_t{1})})).ok());
}

TEST_F(ReteTest, RandomStreamKeepsAllMemoriesConsistent) {
  ReteNetwork network(&catalog_, &meter_, 100);
  std::vector<ProcedureQuery> queries{P1(5, 24), P2Model1(5, 24, 1),
                                      P2Model2(5, 24, 0), P2Model2(30, 44, 1)};
  std::vector<MemoryNode*> memories;
  for (const auto& query : queries) {
    auto memory = network.AddProcedure(query);
    ASSERT_TRUE(memory.ok()) << memory.status().ToString();
    memories.push_back(memory.ValueOrDie());
  }
  Rng rng(31);
  for (int step = 0; step < 150; ++step) {
    const std::size_t pick = rng.Uniform(rids_.size());
    FeedUpdate(pick, &network, static_cast<int64_t>(rng.Uniform(50)),
               static_cast<int64_t>(rng.Uniform(5)));
    if (step % 30 == 29) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(Canon(memories[i]->store().SnapshotForTesting()),
                  Canon(executor_.Execute(queries[i]).ValueOrDie()))
            << "memory " << i << " diverged at step " << step;
      }
    }
  }
}

TEST_F(ReteTest, LeftDeepShapeMaintainsCorrectlyButSharesNothing) {
  ReteNetwork right(&catalog_, &meter_, 100, ReteNetwork::JoinShape::kRightDeep);
  ReteNetwork left(&catalog_, &meter_, 100, ReteNetwork::JoinShape::kLeftDeep);
  auto r_mem = right.AddProcedure(P2Model2(5, 24, 1));
  auto l_mem = left.AddProcedure(P2Model2(5, 24, 1));
  ASSERT_TRUE(r_mem.ok());
  ASSERT_TRUE(l_mem.ok()) << l_mem.status().ToString();
  // Identical contents, different topology.
  EXPECT_EQ(Canon(l_mem.ValueOrDie()->store().SnapshotForTesting()),
            Canon(r_mem.ValueOrDie()->store().SnapshotForTesting()));
  EXPECT_EQ(left.stats().and_nodes, 2u);
  EXPECT_EQ(left.stats().beta_memories, 2u);

  // Both stay consistent under updates, but left-deep charges more I/O per
  // token (intermediate β refresh + two probes instead of one).
  CostMeter right_meter;
  CostMeter left_meter;
  // Feed the same in-range token to both networks with fresh meters.
  const Tuple probe_old = r1_->Read(rids_[10]).ValueOrDie();
  const Tuple probe_new({Value(int64_t{10}), Value(int64_t{1})});
  ASSERT_TRUE(r1_->UpdateInPlace(rids_[10], probe_new).ok());
  meter_.Reset();
  ASSERT_TRUE(DeleteToken(&right, "R1", probe_old).ok());
  ASSERT_TRUE(InsertToken(&right, "R1", probe_new).ok());
  const double right_cost = meter_.total_ms();
  meter_.Reset();
  ASSERT_TRUE(DeleteToken(&left, "R1", probe_old).ok());
  ASSERT_TRUE(InsertToken(&left, "R1", probe_new).ok());
  const double left_cost = meter_.total_ms();
  EXPECT_GE(left_cost, right_cost);
  EXPECT_EQ(Canon(l_mem.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model2(5, 24, 1)).ValueOrDie()));
  EXPECT_EQ(Canon(r_mem.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model2(5, 24, 1)).ValueOrDie()));
}

TEST_F(ReteTest, LeftDeepSharesOnlySelections) {
  ReteNetwork network(&catalog_, &meter_, 100,
                      ReteNetwork::JoinShape::kLeftDeep);
  ASSERT_TRUE(network.AddProcedure(P2Model2(0, 9, 1)).ok());
  const auto before = network.stats();
  // Same tail spec, different base: selections shared, joins duplicated.
  ASSERT_TRUE(network.AddProcedure(P2Model2(20, 29, 1)).ok());
  EXPECT_EQ(network.stats().tconst_nodes, before.tconst_nodes + 1);
  EXPECT_EQ(network.stats().and_nodes, before.and_nodes + 2);
  EXPECT_EQ(network.stats().beta_memories, before.beta_memories + 2);
}

TEST_F(ReteTest, TokensFromInnerRelationsPropagateThroughRightInputs) {
  // The paper's workload only updates R1, but the network is general: an
  // R2 change must flow through the and-node's *right* input, join against
  // the left α-memory, and patch every downstream memory.
  ReteNetwork network(&catalog_, &meter_, 100);
  auto m1 = network.AddProcedure(P2Model1(10, 19, 1));
  auto m2 = network.AddProcedure(P2Model2(10, 19, 1));
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());

  // Change R2 tuple b=1: flip its sel2 from 1 to 0 (leaves both views) and
  // back (re-enters).
  auto r2_rows = [&] {
    std::vector<std::pair<storage::RecordId, Tuple>> rows;
    (void)r2_->Scan([&](storage::RecordId rid, const Tuple& row) {
      rows.emplace_back(rid, row);
      return true;
    });
    return rows;
  }();
  for (auto& [rid, row] : r2_rows) {
    if (row.value(0).AsInt64() != 1) continue;
    const Tuple flipped({row.value(0), row.value(1), Value(int64_t{0})});
    ASSERT_TRUE(r2_->UpdateInPlace(rid, flipped).ok());
    ASSERT_TRUE(DeleteToken(&network, "R2", row).ok());
    ASSERT_TRUE(InsertToken(&network, "R2", flipped).ok());
    EXPECT_EQ(Canon(m1.ValueOrDie()->store().SnapshotForTesting()),
              Canon(executor_.Execute(P2Model1(10, 19, 1)).ValueOrDie()));
    EXPECT_EQ(Canon(m2.ValueOrDie()->store().SnapshotForTesting()),
              Canon(executor_.Execute(P2Model2(10, 19, 1)).ValueOrDie()));
    // Flip back.
    ASSERT_TRUE(r2_->UpdateInPlace(rid, row).ok());
    ASSERT_TRUE(DeleteToken(&network, "R2", flipped).ok());
    ASSERT_TRUE(InsertToken(&network, "R2", row).ok());
    EXPECT_EQ(Canon(m2.ValueOrDie()->store().SnapshotForTesting()),
              Canon(executor_.Execute(P2Model2(10, 19, 1)).ValueOrDie()));
  }
}

TEST_F(ReteTest, TokensFromDeepestRelationPropagate) {
  // An R3 change must cascade: inner and-node right input -> inner beta ->
  // top and-node right input -> result.
  ReteNetwork network(&catalog_, &meter_, 100);
  auto memory = network.AddProcedure(P2Model2(0, 49, 1));
  ASSERT_TRUE(memory.ok());
  const Tuple extra({Value(int64_t{1}), Value(int64_t{999})});
  ASSERT_TRUE(r3_->Insert(extra).ok());
  ASSERT_TRUE(InsertToken(&network, "R3", extra).ok());
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model2(0, 49, 1)).ValueOrDie()));
  // And remove it again.
  // (Relation::Delete needs the rid; simplest is to find it via scan.)
  storage::RecordId rid;
  bool found = false;
  (void)r3_->Scan([&](storage::RecordId r, const Tuple& row) {
    if (row == extra) {
      rid = r;
      found = true;
      return false;
    }
    return true;
  });
  ASSERT_TRUE(found);
  ASSERT_TRUE(r3_->Delete(rid).ok());
  ASSERT_TRUE(DeleteToken(&network, "R3", extra).ok());
  EXPECT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(P2Model2(0, 49, 1)).ValueOrDie()));
}

TEST_F(ReteTest, DotExportRendersStructure) {
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(10, 19)).ok());
  ASSERT_TRUE(network.AddProcedure(P2Model2(10, 19, 1)).ok());
  const std::string dot = network.ToDot();
  EXPECT_NE(dot.find("digraph rete"), std::string::npos);
  EXPECT_NE(dot.find("root"), std::string::npos);
  EXPECT_NE(dot.find("t-const"), std::string::npos);
  EXPECT_NE(dot.find("alpha-memory"), std::string::npos);
  EXPECT_NE(dot.find("beta-memory"), std::string::npos);
  EXPECT_NE(dot.find("and("), std::string::npos);
  // Root dispatches R1 tokens to the (shared) base selection chain.
  EXPECT_NE(dot.find("label=\"R1\""), std::string::npos);
  // Every and-node has exactly one in-edge labelled L and one labelled R,
  // and no other in-edge.  Nodes are declared before any edge.
  std::map<std::string, std::pair<int, int>> and_inputs;  // id -> (#L, #R)
  std::istringstream lines(dot);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string from, arrow, to, label;
    words >> from >> arrow >> to >> label;
    if (to.ends_with(';')) to.pop_back();  // an unlabelled edge
    if (arrow == "[shape=diamond,") {
      and_inputs.try_emplace(from);
      continue;
    }
    if (arrow != "->" || !and_inputs.contains(to)) continue;
    if (label == "[label=\"L\",") {
      ++and_inputs[to].first;
    } else if (label == "[label=\"R\",") {
      ++and_inputs[to].second;
    } else {
      ADD_FAILURE() << "unlabelled and-node in-edge: " << line;
    }
  }
  EXPECT_EQ(and_inputs.size(), network.stats().and_nodes);
  for (const auto& [id, counts] : and_inputs) {
    EXPECT_EQ(counts, std::make_pair(1, 1)) << "and-node " << id;
  }
}

TEST_F(ReteTest, MaintenanceChargesScreenAndRefreshCosts) {
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P1(10, 19)).ok());
  meter_.Reset();
  ASSERT_TRUE(InsertToken(&network, "R1",
                          Tuple({Value(int64_t{15}), Value(int64_t{1})}))
                  .ok());
  // One screen (t-const), one page read + write (α-memory refresh).
  EXPECT_EQ(meter_.screens(), 1u);
  EXPECT_GE(meter_.disk_writes(), 1u);
}

TEST_F(ReteTest, RootDispatchCountsSubmittedAndSelectedRows) {
  // exec.batch.rows_submitted counts every change entering the root;
  // rows_selected counts (change, selection entry) admissions: every
  // unconditional entry, and each interval entry whose interval holds the
  // key — whether or not the t-const residual then passes the token.
  ReteNetwork network(&catalog_, &meter_, 100);
  ASSERT_TRUE(network.AddProcedure(P2Model1(10, 19, 1)).ok());
  ASSERT_TRUE(network.AddProcedure(P1(0, 12)).ok());
  const obs::Counter* submitted =
      obs::GlobalMetrics().FindCounter("exec.batch.rows_submitted");
  const obs::Counter* selected =
      obs::GlobalMetrics().FindCounter("exec.batch.rows_selected");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(selected, nullptr);
  const uint64_t submitted_before = submitted->value();
  const uint64_t selected_before = selected->value();

  ivm::ChangeBatch r1_changes;
  r1_changes.AddInsert(Tuple({Value(int64_t{15}), Value(int64_t{1})}));
  r1_changes.AddInsert(Tuple({Value(int64_t{45}), Value(int64_t{0})}));
  r1_changes.AddInsert(Tuple({Value(int64_t{11}), Value(int64_t{1})}));
  ASSERT_TRUE(network.OnChanges("R1", r1_changes).ok());
  // Key 15 hits [10,19] only, key 45 misses both intervals, key 11 hits
  // [10,19] and [0,12].
  EXPECT_EQ(submitted->value() - submitted_before, 3u);
  EXPECT_EQ(selected->value() - selected_before, 3u);

  // R2's selection is unconditional at the root: admitted even though its
  // residual (sel2 = 1) rejects the token in the t-const node.
  ASSERT_TRUE(InsertToken(&network, "R2",
                          Tuple({Value(int64_t{7}), Value(int64_t{0}),
                                 Value(int64_t{0})}))
                  .ok());
  EXPECT_EQ(submitted->value() - submitted_before, 4u);
  EXPECT_EQ(selected->value() - selected_before, 4u);

  // A relation no procedure mentions is submitted but never selected.
  ASSERT_TRUE(InsertToken(&network, "ZZZ", Tuple({Value(int64_t{1})})).ok());
  EXPECT_EQ(submitted->value() - submitted_before, 5u);
  EXPECT_EQ(selected->value() - selected_before, 4u);
}

TEST_F(ReteTest, SelfJoinStaysConsistentUnderOneTokenPath) {
  // S joins back onto itself: base S rows in a key interval, joined on
  // `link` with every S row (each base row joins at least itself).  A token
  // of S reaches both and-node inputs, so each token must finish its walk
  // through one input before the next token enters: only then does a
  // transaction's stream derive the same tokens, and charge the same
  // screens, as its changes submitted one call at a time.
  rel::Relation::Options options;
  options.tuple_width_bytes = 100;
  options.btree_column = 0;
  options.hash_column = 1;
  rel::Relation* s =
      catalog_
          .CreateRelation("S",
                          rel::Schema({{"key", rel::ValueType::kInt64},
                                       {"link", rel::ValueType::kInt64}}),
                          options)
          .ValueOrDie();
  Rng rng(41);
  std::vector<storage::RecordId> rids;
  for (int64_t i = 0; i < 30; ++i) {
    const Tuple row({Value(i), Value(static_cast<int64_t>(rng.Uniform(6)))});
    rids.push_back(s->Insert(row).ValueOrDie());
  }
  ProcedureQuery query;
  query.base = rel::BaseSelection{"S", 5, 20, Conjunction{}};
  query.joins.push_back(JoinStage{"S", 1, Conjunction{}});

  // `whole` takes each transaction in one OnChanges call, `split` one call
  // per change; each charges screens to its own meter.
  CostMeter whole_meter;
  CostMeter split_meter;
  ReteNetwork whole(&catalog_, &whole_meter, 100);
  ReteNetwork split(&catalog_, &split_meter, 100);
  auto memory = whole.AddProcedure(query);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto split_memory = split.AddProcedure(query);
  ASSERT_TRUE(split_memory.ok()) << split_memory.status().ToString();
  ASSERT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
            Canon(executor_.Execute(query).ValueOrDie()));

  // Each transaction mixes modifications, inserts and deletes.
  for (int txn = 0; txn < 40; ++txn) {
    ivm::ChangeBatch changes;
    const std::size_t ops = 1 + rng.Uniform(4);
    for (std::size_t op = 0; op < ops; ++op) {
      const Tuple fresh({Value(static_cast<int64_t>(rng.Uniform(30))),
                         Value(static_cast<int64_t>(rng.Uniform(6)))});
      const std::size_t kind = rng.Uniform(4);
      if (kind == 0 || rids.empty()) {
        rids.push_back(s->Insert(fresh).ValueOrDie());
        changes.AddInsert(fresh);
        continue;
      }
      const std::size_t pick = rng.Uniform(rids.size());
      const Tuple old_tuple = s->Read(rids[pick]).ValueOrDie();
      if (kind == 1) {
        ASSERT_TRUE(s->Delete(rids[pick]).ok());
        rids.erase(rids.begin() + static_cast<std::ptrdiff_t>(pick));
        changes.AddDelete(old_tuple);
      } else {
        ASSERT_TRUE(s->UpdateInPlace(rids[pick], fresh).ok());
        changes.AddDelete(old_tuple);
        changes.AddInsert(fresh);
      }
    }
    ASSERT_TRUE(whole.OnChanges("S", changes).ok());
    for (std::size_t i = 0; i < changes.size(); ++i) {
      ASSERT_TRUE((changes.is_insert(i) ? InsertToken : DeleteToken)(
                      &split, "S", changes.RowAt(i))
                      .ok());
    }
    for (const ReteNetwork* network : {&whole, &split}) {
      ASSERT_TRUE(network->ValidateState().ok())
          << "transaction " << txn << ": "
          << network->ValidateState().ToString();
    }
    ASSERT_EQ(Canon(memory.ValueOrDie()->store().SnapshotForTesting()),
              Canon(executor_.Execute(query).ValueOrDie()))
        << "transaction " << txn;
    ASSERT_EQ(whole_meter.screens(), split_meter.screens())
        << "transaction " << txn;
  }
}

TEST_F(ReteTest, RelationSnapshotLivesForOneAddProceduresCall) {
  ReteNetwork network(&catalog_, &meter_, 100);
  const std::vector<ProcedureQuery> first = {P2Model1(0, 49, 1)};
  ASSERT_TRUE(network.AddProcedures(first).ok());
  EXPECT_EQ(network.stats().relation_scans, 1u);

  // R2 changes after the first build; the network hears of it as a token.
  const Tuple added({Value(int64_t{2}), Value(int64_t{0}), Value(int64_t{1})});
  ASSERT_TRUE(r2_->Insert(added).ok());
  ASSERT_TRUE(InsertToken(&network, "R2", added).ok());

  // A new R2 selection (c = 0) in a second call reads R2 afresh, so its
  // α-memory, and the join above it, hold the inserted row.
  ProcedureQuery second = P2Model1(0, 49, 1);
  second.joins[0].residual = Conjunction(
      {PredicateTerm{1, rel::CompareOp::kEq, Value(int64_t{0})}});
  const std::vector<ProcedureQuery> queries = {second};
  auto memories = network.AddProcedures(queries);
  ASSERT_TRUE(memories.ok()) << memories.status().ToString();
  EXPECT_EQ(network.stats().relation_scans, 2u);
  const std::vector<Tuple> expected = executor_.Execute(second).ValueOrDie();
  ASSERT_TRUE(
      std::any_of(expected.begin(), expected.end(), [&](const Tuple& row) {
        return Tuple({row.value(2), row.value(3), row.value(4)}) == added;
      }));
  EXPECT_EQ(Canon(memories.ValueOrDie()[0]->store().SnapshotForTesting()),
            Canon(expected));
  EXPECT_TRUE(network.ValidateState().ok())
      << network.ValidateState().ToString();
}

TEST_F(ReteTest, FailedPopulationInsertReturnsItsStatus) {
  // A memory record wider than a page cannot be stored: population must
  // report that rather than abort, on the B-tree path (the interval
  // selection) and on the snapshot path (the unconditional R2 selection,
  // reached through an interval that selects no R1 tuple).  A memory is
  // populated before its chain is registered, so the failing selection
  // leaves no node behind and the network still validates.
  {
    ReteNetwork network(&catalog_, &meter_, /*pad_to_bytes=*/5000);
    const std::string empty_dot = network.ToDot();
    EXPECT_EQ(network.AddProcedure(P1(10, 19)).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(network.stats().tconst_nodes, 0u);
    EXPECT_EQ(network.stats().alpha_memories, 0u);
    EXPECT_EQ(network.ToDot(), empty_dot);
    EXPECT_TRUE(network.ValidateState().ok());
  }
  {
    // The empty R1 selection is complete and stays; the R2 one is not.
    ReteNetwork network(&catalog_, &meter_, /*pad_to_bytes=*/5000);
    EXPECT_EQ(network.AddProcedure(P2Model1(1000, 2000, 1)).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(network.stats().tconst_nodes, 1u);
    EXPECT_EQ(network.stats().alpha_memories, 1u);
    EXPECT_EQ(network.stats().and_nodes, 0u);
    EXPECT_EQ(network.stats().beta_memories, 0u);
    EXPECT_EQ(network.stats().relation_scans, 1u);
    EXPECT_TRUE(network.ValidateState().ok())
        << network.ValidateState().ToString();
  }
}

cost::Params GroupingParams() {
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

TEST(ReteOnChangesTest, GroupingDoesNotChangeChargesOrState) {
  // Two identical databases, each with its own network charging its own
  // meter, replay one ordered stream of R1 modifications: one OnChanges
  // over the whole stream versus one OnChanges per change.  Grouping is
  // only how many root-latch acquisitions the stream takes, so every
  // charge must match and both networks must validate against the catalog.
  for (const cost::ProcModel model :
       {cost::ProcModel::kModel1, cost::ProcModel::kModel2}) {
    std::unique_ptr<sim::Database> dbs[2];
    std::unique_ptr<ReteNetwork> networks[2];
    for (int i = 0; i < 2; ++i) {
      auto built = sim::BuildDatabase(GroupingParams(), model, /*seed=*/5);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      dbs[i] = built.TakeValueOrDie();
      networks[i] = std::make_unique<ReteNetwork>(
          dbs[i]->catalog.get(), &dbs[i]->meter, 100);
      storage::MeteringGuard guard(dbs[i]->disk.get());
      for (const proc::DatabaseProcedure& procedure : dbs[i]->procedures) {
        ASSERT_TRUE(networks[i]->AddProcedure(procedure.query).ok());
      }
    }

    // The same seeded modifications, applied to both base relations.
    ivm::ChangeBatch stream;
    Rng rng(23);
    for (int step = 0; step < 60; ++step) {
      const std::size_t pick = rng.Uniform(dbs[0]->r1_rids.size());
      const int64_t new_key =
          static_cast<int64_t>(rng.Uniform(dbs[0]->r1_keys));
      for (int i = 0; i < 2; ++i) {
        rel::Relation* r1 = dbs[i]->catalog->GetRelation("R1").ValueOrDie();
        storage::MeteringGuard guard(dbs[i]->disk.get());
        const Tuple old_tuple = r1->Read(dbs[i]->r1_rids[pick]).ValueOrDie();
        std::vector<Value> values = old_tuple.values();
        values[sim::R1Columns::kKey] = Value(new_key);
        const Tuple new_tuple(values);
        ASSERT_TRUE(r1->UpdateInPlace(dbs[i]->r1_rids[pick], new_tuple).ok());
        if (i == 0) {
          stream.AddDelete(old_tuple);
          stream.AddInsert(new_tuple);
        }
      }
    }

    dbs[0]->meter.Reset();
    dbs[1]->meter.Reset();
    ASSERT_TRUE(networks[0]->OnChanges("R1", stream).ok());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ivm::ChangeBatch one;
      if (stream.is_insert(i)) {
        one.AddInsert(stream.RowAt(i));
      } else {
        one.AddDelete(stream.RowAt(i));
      }
      ASSERT_TRUE(networks[1]->OnChanges("R1", one).ok());
    }

    const CostMeter& whole = dbs[0]->meter;
    const CostMeter& split = dbs[1]->meter;
    EXPECT_GT(whole.total_ms(), 0.0);
    EXPECT_GT(whole.disk_writes(), 0u);
    EXPECT_EQ(whole.total_ms(), split.total_ms());
    EXPECT_EQ(whole.screens(), split.screens());
    EXPECT_EQ(whole.disk_reads(), split.disk_reads());
    EXPECT_EQ(whole.disk_writes(), split.disk_writes());
    for (int i = 0; i < 2; ++i) {
      storage::MeteringGuard guard(dbs[i]->disk.get());
      EXPECT_TRUE(networks[i]->ValidateState().ok())
          << networks[i]->ValidateState().ToString();
    }
  }
}

/// FNV-1a over every live page's Page::Serialize() bytes, in page-id
/// order; freed ids are skipped.
uint64_t PageImageHash(storage::SimulatedDisk* disk) {
  uint64_t hash = 14695981039346656037ULL;
  for (storage::PageId id = 0; id < disk->page_count(); ++id) {
    if (!disk->IsLive(id)) continue;
    const std::vector<uint8_t> bytes =
        disk->ReadPage(id).ValueOrDie()->Serialize();
    for (uint8_t byte : bytes) {
      hash ^= byte;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(ReteBuildTest, OneCallBuildsWhatOneQueryAtATimeBuilds) {
  // Two identical databases: one network compiles every procedure in one
  // AddProcedures call (one snapshot per relation), the other one query at
  // a time.  The structure, every page byte and the memory contents match.
  for (const cost::ProcModel model :
       {cost::ProcModel::kModel1, cost::ProcModel::kModel2}) {
    for (const ReteNetwork::JoinShape shape :
         {ReteNetwork::JoinShape::kRightDeep,
          ReteNetwork::JoinShape::kLeftDeep}) {
      std::unique_ptr<sim::Database> dbs[2];
      std::unique_ptr<ReteNetwork> networks[2];
      for (int i = 0; i < 2; ++i) {
        auto built = sim::BuildDatabase(GroupingParams(), model, /*seed=*/9);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        dbs[i] = built.TakeValueOrDie();
        networks[i] = std::make_unique<ReteNetwork>(
            dbs[i]->catalog.get(), &dbs[i]->meter, 100, shape);
      }
      std::vector<ProcedureQuery> queries;
      std::set<std::string> inner_relations;
      for (const proc::DatabaseProcedure& procedure : dbs[0]->procedures) {
        queries.push_back(procedure.query);
        for (const JoinStage& stage : procedure.query.joins) {
          inner_relations.insert(stage.relation);
        }
      }
      ASSERT_FALSE(inner_relations.empty());
      {
        storage::MeteringGuard guard(dbs[0]->disk.get());
        auto memories = networks[0]->AddProcedures(queries);
        ASSERT_TRUE(memories.ok()) << memories.status().ToString();
        EXPECT_EQ(memories.ValueOrDie().size(), queries.size());
      }
      {
        storage::MeteringGuard guard(dbs[1]->disk.get());
        for (const ProcedureQuery& query : queries) {
          ASSERT_TRUE(networks[1]->AddProcedure(query).ok());
        }
      }
      const ReteNetwork::Stats& whole = networks[0]->stats();
      const ReteNetwork::Stats& split = networks[1]->stats();
      EXPECT_EQ(whole.tconst_nodes, split.tconst_nodes);
      EXPECT_EQ(whole.alpha_memories, split.alpha_memories);
      EXPECT_EQ(whole.and_nodes, split.and_nodes);
      EXPECT_EQ(whole.beta_memories, split.beta_memories);
      EXPECT_EQ(whole.shared_subexpression_hits,
                split.shared_subexpression_hits);
      EXPECT_EQ(whole.relation_scans, inner_relations.size());
      EXPECT_GT(split.relation_scans, whole.relation_scans);
      EXPECT_EQ(dbs[0]->disk->page_count(), dbs[1]->disk->page_count());
      EXPECT_EQ(PageImageHash(dbs[0]->disk.get()),
                PageImageHash(dbs[1]->disk.get()));
      for (int i = 0; i < 2; ++i) {
        storage::MeteringGuard guard(dbs[i]->disk.get());
        EXPECT_TRUE(networks[i]->ValidateState().ok())
            << networks[i]->ValidateState().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace procsim::rete
