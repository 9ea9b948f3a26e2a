// Delta-debugging reducer: a planted lost invalidation (kSilentUpdate)
// must shrink to a minimal reproduction automatically, and a passing
// stream must be rejected rather than "reduced" to noise.
#include "audit/reduce.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/crosscheck.h"

namespace procsim::audit {
namespace {

using sim::WorkloadOp;

CrossCheckOptions ReducerOptions() {
  CrossCheckOptions options;
  options.engine.params.N = 160;
  options.engine.params.f_R2 = 0.1;
  options.engine.params.f_R3 = 0.1;
  // A large update batch so a single silent update transaction almost
  // surely breaks some procedure's interval — the failure the reducer
  // must preserve while shrinking.
  options.engine.params.l = 20;
  options.engine.mix.update_batch = 20;
  options.engine.params.N1 = 4;
  options.engine.params.N2 = 4;
  options.engine.params.SF = 0.5;
  options.engine.params.f = 0.08;
  options.engine.params.f2 = 0.3;
  options.engine.seed = 20260806;
  return options;
}

TEST(ReduceTest, PlantedSilentUpdateShrinksToMinimalRepro) {
  CrossCheckOptions options = ReducerOptions();
  options.steps = 60;
  std::vector<WorkloadOp> ops = GenerateOpStream(options);
  ASSERT_EQ(ops.size(), 60u);
  ops[17].kind = WorkloadOp::Kind::kSilentUpdate;
  if (ops[17].value == 0) ops[17].value = 12345;

  Result<ReduceOutcome> reduced = ReduceOpStream(options, ops);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  const ReduceOutcome& outcome = reduced.ValueOrDie();
  // The silent update fails on its own (CompareBatch runs right after the
  // un-notified mutation commits), so 1-minimality means a tiny repro.
  EXPECT_LE(outcome.minimal.size(), 10u);
  EXPECT_GE(outcome.minimal.size(), 1u);
  EXPECT_GT(outcome.probes, 1u);
  EXPECT_FALSE(outcome.failure.empty());
  EXPECT_NE(outcome.test_case.find("kSilentUpdate"), std::string::npos);

  // The minimal stream really does still fail...
  EXPECT_FALSE(RunOpStream(options, outcome.minimal).ok());
  // ...and is 1-minimal: dropping any single op makes it pass.
  for (std::size_t i = 0; i < outcome.minimal.size(); ++i) {
    std::vector<WorkloadOp> without = outcome.minimal;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_TRUE(RunOpStream(options, without).ok())
        << "op " << i << " is removable";
  }
}

TEST(ReduceTest, ReproCarriesEveryNonDefaultOption) {
  // The pasted repro must replay under the options that failed, including
  // the ones the reducer's own callers rarely change.
  CrossCheckOptions options = ReducerOptions();
  options.engine.params.f_R2 = 0.2;
  options.engine.config.cache_budget_bytes = 4096;
  options.steps = 30;
  std::vector<WorkloadOp> ops = GenerateOpStream(options);
  ops[5] = WorkloadOp{WorkloadOp::Kind::kSilentUpdate, 12345};

  Result<ReduceOutcome> reduced = ReduceOpStream(options, ops);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  const std::string& repro = reduced.ValueOrDie().test_case;
  EXPECT_NE(repro.find("options.engine.params.f_R2 = 0.2;\n"),
            std::string::npos)
      << repro;
  EXPECT_NE(repro.find("options.engine.config.cache_budget_bytes = 4096;\n"),
            std::string::npos)
      << repro;
  // Fields left at their defaults are not printed.
  EXPECT_EQ(repro.find("engine.params.f_R3"), std::string::npos) << repro;
}

TEST(ReduceTest, PassingStreamIsRejected) {
  CrossCheckOptions options = ReducerOptions();
  options.steps = 20;
  const std::vector<WorkloadOp> ops = GenerateOpStream(options);
  Result<ReduceOutcome> reduced = ReduceOpStream(options, ops);
  EXPECT_FALSE(reduced.ok());
  EXPECT_EQ(reduced.status().code(), StatusCode::kInvalidArgument);
}

TEST(NormalizeTxnMarkersTest, RepairsSlicedMarkerStreams) {
  const auto kind = [](const WorkloadOp& op) { return op.kind; };
  // Orphan closers (a slice dropped their kBegin) are removed.
  std::vector<WorkloadOp> orphans = {
      {WorkloadOp::Kind::kCommit, 0},
      {WorkloadOp::Kind::kUpdate, 5},
      {WorkloadOp::Kind::kAbort, 0},
  };
  std::vector<WorkloadOp> repaired = NormalizeTxnMarkers(orphans);
  ASSERT_EQ(repaired.size(), 1u);
  EXPECT_EQ(kind(repaired[0]), WorkloadOp::Kind::kUpdate);

  // A nested kBegin (its closer was sliced away) is dropped; the stream
  // stays one open transaction, closed at the end.
  std::vector<WorkloadOp> nested = {
      {WorkloadOp::Kind::kBegin, 0},
      {WorkloadOp::Kind::kUpdate, 5},
      {WorkloadOp::Kind::kBegin, 0},
      {WorkloadOp::Kind::kInsert, 7},
  };
  repaired = NormalizeTxnMarkers(nested);
  ASSERT_EQ(repaired.size(), 4u);
  EXPECT_EQ(kind(repaired[0]), WorkloadOp::Kind::kBegin);
  EXPECT_EQ(kind(repaired[1]), WorkloadOp::Kind::kUpdate);
  EXPECT_EQ(kind(repaired[2]), WorkloadOp::Kind::kInsert);
  EXPECT_EQ(kind(repaired[3]), WorkloadOp::Kind::kCommit);

  // Idempotent, and the identity on well-formed streams.
  const std::vector<WorkloadOp> well_formed = {
      {WorkloadOp::Kind::kBegin, 0},   {WorkloadOp::Kind::kUpdate, 5},
      {WorkloadOp::Kind::kCommit, 0},  {WorkloadOp::Kind::kAccess, 1},
      {WorkloadOp::Kind::kBegin, 0},   {WorkloadOp::Kind::kDelete, 9},
      {WorkloadOp::Kind::kAbort, 0},
  };
  const std::vector<WorkloadOp> once = NormalizeTxnMarkers(well_formed);
  ASSERT_EQ(once.size(), well_formed.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(kind(once[i]), well_formed[i].kind) << "op " << i;
  }
  const std::vector<WorkloadOp> twice = NormalizeTxnMarkers(once);
  ASSERT_EQ(twice.size(), once.size());
}

TEST(ReduceTest, TransactionalStreamShrinksWithMarkersPaired) {
  CrossCheckOptions options = ReducerOptions();
  options.steps = 40;
  std::vector<WorkloadOp> ops = GenerateOpStream(options);
  // Bracket every op into explicit transactions, then plant the bug inside
  // one of them.
  std::vector<WorkloadOp> wrapped;
  for (const WorkloadOp& op : ops) {
    if (sim::IsMutationOp(op.kind)) {
      wrapped.push_back({WorkloadOp::Kind::kBegin, 0});
      wrapped.push_back(op);
      wrapped.push_back({WorkloadOp::Kind::kCommit, 0});
    } else {
      wrapped.push_back(op);
    }
  }
  bool planted = false;
  for (WorkloadOp& op : wrapped) {
    if (op.kind == WorkloadOp::Kind::kUpdate) {
      op.kind = WorkloadOp::Kind::kSilentUpdate;
      if (op.value == 0) op.value = 54321;
      planted = true;
      break;
    }
  }
  ASSERT_TRUE(planted);

  Result<ReduceOutcome> reduced = ReduceOpStream(options, wrapped);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  const ReduceOutcome& outcome = reduced.ValueOrDie();
  EXPECT_LE(outcome.minimal.size(), 6u);
  // The minimal stream is marker-well-formed: normalization is the
  // identity on it (every candidate was normalized before probing).
  const std::vector<WorkloadOp> normalized =
      NormalizeTxnMarkers(outcome.minimal);
  ASSERT_EQ(normalized.size(), outcome.minimal.size());
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    EXPECT_EQ(normalized[i].kind, outcome.minimal[i].kind) << "op " << i;
  }
  // And it still reproduces the failure.
  EXPECT_FALSE(RunOpStream(options, outcome.minimal).ok());
}

TEST(ReduceTest, GeneratedStreamMatchesCrossCheck) {
  // CrossCheck(options) must be exactly GenerateOpStream + RunOpStream:
  // same counts, same comparisons.
  CrossCheckOptions options = ReducerOptions();
  options.steps = 40;
  Result<CrossCheckReport> direct = CrossCheck(options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  Result<CrossCheckReport> replayed =
      RunOpStream(options, GenerateOpStream(options));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(direct.ValueOrDie().accesses, replayed.ValueOrDie().accesses);
  EXPECT_EQ(direct.ValueOrDie().update_transactions,
            replayed.ValueOrDie().update_transactions);
  EXPECT_EQ(direct.ValueOrDie().comparisons,
            replayed.ValueOrDie().comparisons);
}

}  // namespace
}  // namespace procsim::audit
