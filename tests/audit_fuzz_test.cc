// Randomized differential harness: the six strategies must return
// byte-identical answers under a seeded random interleaving of update
// transactions, base-table inserts/deletes and procedure accesses, with the
// deep structure validators running after every update batch.  Parameters
// are scaled down from the figure-2 defaults so hundreds of steps finish
// quickly; the *structure* (clustered B-tree R1, hashed R2/R3, shared P2
// subexpressions) is the paper's.
#include "audit/crosscheck.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace procsim::audit {
namespace {

cost::Params SmallParams() {
  cost::Params params;
  params.N = 160;     // R1 tuples
  params.f_R2 = 0.1;  // |R2| = 16
  params.f_R3 = 0.1;  // |R3| = 16
  params.l = 3;       // tuples modified per update transaction
  params.N1 = 4;      // P1 procedures
  params.N2 = 4;      // P2 procedures
  params.SF = 0.5;
  params.f = 0.08;    // selection interval spans ~13 keys
  params.f2 = 0.3;
  return params;
}

CrossCheckOptions SmallOptions(uint64_t seed) {
  CrossCheckOptions options;
  options.engine.params = SmallParams();
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  options.engine.seed = seed;
  return options;
}

TEST(AuditFuzzTest, Model1StrategiesAgreeOver500Steps) {
  CrossCheckOptions options = SmallOptions(20260806);
  options.engine.model = cost::ProcModel::kModel1;
  options.steps = 500;
  Result<CrossCheckReport> report = CrossCheck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().steps, 500u);
  // The op mix must actually exercise every mutation kind.
  EXPECT_GT(report.ValueOrDie().update_transactions, 0u);
  EXPECT_GT(report.ValueOrDie().base_inserts, 0u);
  EXPECT_GT(report.ValueOrDie().base_deletes, 0u);
  EXPECT_GT(report.ValueOrDie().accesses, 0u);
  EXPECT_GT(report.ValueOrDie().comparisons, 1000u);
}

TEST(AuditFuzzTest, Model2ThreeWayJoinsAgree) {
  CrossCheckOptions options = SmallOptions(7);
  options.engine.model = cost::ProcModel::kModel2;
  options.steps = 200;
  Result<CrossCheckReport> report = CrossCheck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().steps, 200u);
  EXPECT_GT(report.ValueOrDie().comparisons, 0u);
}

TEST(AuditFuzzTest, DifferentSeedsAllAgree) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    CrossCheckOptions options = SmallOptions(seed);
    options.steps = 60;
    Result<CrossCheckReport> report = CrossCheck(options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
  }
}

TEST(AuditFuzzTest, TinyBudgetPreservesByteIdentityAcrossShardCounts) {
  // The eviction-aware differential proof: replay one op stream unbudgeted,
  // then under an adversarially tiny cache budget at several shard counts.
  // Evictions must actually happen, and every access digest must stay
  // byte-identical — eviction is not invalidation; a recompute restores the
  // exact oracle value regardless of how the LRU perturbs each strategy.
  CrossCheckOptions options = SmallOptions(20260807);
  options.steps = 120;
  options.compare_sample = 1;  // digests are the property under test
  const std::vector<sim::WorkloadOp> ops = GenerateOpStream(options);

  std::vector<std::string> baseline_digests;
  Result<CrossCheckReport> baseline =
      RunOpStream(options, ops, &baseline_digests);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline_digests.empty());
  EXPECT_EQ(baseline.ValueOrDie().cache_evictions, 0u);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                             std::size_t{64}}) {
    CrossCheckOptions budgeted = options;
    budgeted.engine.config.shards = shards;
    // ~13-tuple results at S=100 bytes: a couple of KB forces constant
    // eviction across every strategy's cached objects.
    budgeted.engine.config.cache_budget_bytes = 2048;
    std::vector<std::string> digests;
    Result<CrossCheckReport> report = RunOpStream(budgeted, ops, &digests);
    ASSERT_TRUE(report.ok())
        << shards << " shards: " << report.status().ToString();
    EXPECT_GT(report.ValueOrDie().cache_evictions, 0u)
        << shards << " shards: budget never forced an eviction";
    ASSERT_EQ(digests.size(), baseline_digests.size()) << shards << " shards";
    for (std::size_t i = 0; i < digests.size(); ++i) {
      ASSERT_EQ(digests[i], baseline_digests[i])
          << shards << " shards: access #" << i
          << " diverged between budgeted and unbudgeted runs";
    }
  }
}

TEST(AuditFuzzTest, SampledComparisonMode) {
  CrossCheckOptions options = SmallOptions(99);
  options.steps = 80;
  options.compare_sample = 2;  // spot-check two procedures per batch
  Result<CrossCheckReport> report = CrossCheck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(AuditFuzzTest, DatabaseWithoutProceduresIsRejected) {
  CrossCheckOptions options = SmallOptions(42);
  options.engine.params.N1 = 0;
  options.engine.params.N2 = 0;
  options.steps = 20;
  Result<CrossCheckReport> report = CrossCheck(options);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuditFuzzTest, SilentUpdateFailsAtItsCommit) {
  // The comparison sweep runs after every committed transaction that
  // queued a mutation, so a lost invalidation fails at its commit with no
  // access after it; an aborted one is never applied.
  CrossCheckOptions options = SmallOptions(20260806);
  options.engine.mix.update_batch = 20;  // wide enough to break a procedure
  using Kind = sim::WorkloadOp::Kind;
  const sim::WorkloadOp silent{Kind::kSilentUpdate, 12345};
  const sim::WorkloadOp begin{Kind::kBegin, 0};
  EXPECT_FALSE(RunOpStream(options, {silent}).ok());
  EXPECT_FALSE(
      RunOpStream(options, {begin, silent, {Kind::kCommit, 0}}).ok());
  const Result<CrossCheckReport> aborted =
      RunOpStream(options, {begin, silent, {Kind::kAbort, 0}});
  ASSERT_TRUE(aborted.ok()) << aborted.status().ToString();
  EXPECT_EQ(aborted.ValueOrDie().update_transactions, 0u);
}

TEST(AuditFuzzTest, InlineMutationsAreRejected) {
  // value == 0 means "draw from the caller's inline RNG", which a deferred
  // apply does not have: the engine refuses rather than diverging silently.
  const std::vector<sim::WorkloadOp> ops = {
      sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 0}};
  Result<CrossCheckReport> report = RunOpStream(SmallOptions(1), ops);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace procsim::audit
