// The crash-point fuzzing harness (ISSUE tentpole proof): every WAL record
// boundary of a transactional workload is a simulated crash, recovery from
// each prefix is cross-checked against the six-strategy oracle, and a
// planted recovery bug must be caught and ddmin-minimized to a paste-ready
// reproduction.  Runs under the `recovery` ctest label.
#include "audit/crash.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/crosscheck.h"
#include "audit/reduce.h"
#include "sim/workload.h"
#include "txn/engine.h"

namespace procsim::audit {
namespace {

using sim::WorkloadOp;

txn::TxnEngine::Options EngineOptions(uint64_t seed) {
  txn::TxnEngine::Options options;
  options.params.N = 60;
  options.params.f_R2 = 0.1;
  options.params.f_R3 = 0.1;
  options.params.l = 2;
  options.params.N1 = 2;
  options.params.N2 = 2;
  options.params.SF = 0.5;
  options.params.f = 0.1;
  options.params.f2 = 0.3;
  options.seed = seed;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  return options;
}

std::vector<WorkloadOp> FuzzStream(const txn::TxnEngine::Options& options,
                                   std::size_t count, uint64_t seed) {
  sim::Workload workload(options.mix,
                         static_cast<std::size_t>(options.params.N1 +
                                                  options.params.N2),
                         seed);
  TxnWrapOptions wrap;
  wrap.seed = seed ^ 0x9e3779b97f4a7c15ull;
  wrap.abort_probability = 0.15;
  return WrapInTransactions(workload.Take(count), wrap);
}

TEST(CrashFuzzTest, TwentySeedsSurviveEveryCrashPoint) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CrashSweepOptions sweep;
    sweep.engine = EngineOptions(seed);
    const std::vector<WorkloadOp> ops = FuzzStream(sweep.engine, 10, seed);
    Result<CrashSweepReport> report = CrashPointSweep(sweep, ops);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    const CrashSweepReport& r = report.ValueOrDie();
    EXPECT_GT(r.wal_records, 0u) << "seed " << seed;
    // Every record boundary plus the empty and full prefixes.
    EXPECT_EQ(r.crash_points_checked, r.wal_records + 1) << "seed " << seed;
  }
}

TEST(CrashFuzzTest, GroupCommitBatchesSurviveCrashes) {
  // Group commits put several transactions between consecutive forces; a
  // crash mid-group must roll the whole unflushed tail back.
  CrashSweepOptions sweep;
  sweep.engine = EngineOptions(99);
  sweep.engine.config.group_commit_size = 3;
  const std::vector<WorkloadOp> ops = FuzzStream(sweep.engine, 14, 99);
  Result<CrashSweepReport> report = CrashPointSweep(sweep, ops);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(CrashFuzzTest, TinyCacheBudgetSurvivesCrashes) {
  // An adversarially small budget keeps evicting mid-transaction, so
  // recovery must also rebuild budget accounting and live flags correctly.
  CrashSweepOptions sweep;
  sweep.engine = EngineOptions(7);
  sweep.engine.config.cache_budget_bytes = 256;
  const std::vector<WorkloadOp> ops = FuzzStream(sweep.engine, 12, 7);
  Result<CrashSweepReport> report = CrashPointSweep(sweep, ops);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(CrashFuzzTest, CheckpointedLogSurvivesCrashesOnBothSides) {
  // A mid-run kCheckpoint means some crash prefixes restore the validity
  // bitmap from its snapshot plus the log tail, others from genesis.
  CrashSweepOptions sweep;
  sweep.engine = EngineOptions(13);
  sweep.checkpoint_after_ops = 6;
  const std::vector<WorkloadOp> ops = FuzzStream(sweep.engine, 12, 13);
  Result<CrashSweepReport> report = CrashPointSweep(sweep, ops);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(CrashFuzzTest, PlantedLostInvalidationIsCaughtAndMinimized) {
  CrashSweepOptions sweep;
  sweep.engine = EngineOptions(5);
  // The planted bug is caught by Recover's own log-subset invariant (and
  // by the oracle sweep); keep the probe lean so ddmin stays fast.
  sweep.injection.drop_invalidation_replay = true;
  sweep.validate_structures = false;
  sweep.compare_strategies_at_every_point = false;
  const std::vector<WorkloadOp> ops = FuzzStream(sweep.engine, 12, 5);

  // The harness's self-test: with the bug planted the sweep MUST fail and
  // name the crash point it failed at.
  Result<CrashSweepReport> broken = CrashPointSweep(sweep, ops);
  ASSERT_FALSE(broken.ok())
      << "planted recovery bug escaped the crash sweep";
  EXPECT_NE(broken.status().ToString().find("crash point"),
            std::string::npos)
      << broken.status().ToString();
  // The same stream with a faithful recovery passes — the failure is the
  // injection, not the stream.
  CrashSweepOptions faithful = sweep;
  faithful.injection.drop_invalidation_replay = false;
  ASSERT_TRUE(CrashPointSweep(faithful, ops).ok());

  // ddmin against a "does any crash point still fail?" probe shrinks the
  // stream to a paste-ready minimal reproduction.
  CrossCheckOptions render;
  render.engine = sweep.engine;
  const ReduceProbe probe = [&](const std::vector<WorkloadOp>& candidate) {
    return !CrashPointSweep(sweep, candidate).ok();
  };
  Result<ReduceOutcome> reduced =
      ReduceOpStream(render, ops, probe, broken.status().ToString());
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  const ReduceOutcome& outcome = reduced.ValueOrDie();
  // One committed mutation is enough to trip the invariant, so the minimal
  // stream is tiny (the op plus at most its transaction brackets).
  EXPECT_LE(outcome.minimal.size(), 3u);
  EXPECT_GE(outcome.minimal.size(), 1u);
  EXPECT_GT(outcome.probes, 1u);
  EXPECT_TRUE(probe(outcome.minimal))
      << "the minimal stream no longer reproduces the failure";
  EXPECT_FALSE(outcome.test_case.empty());
  EXPECT_NE(outcome.failure.find("crash point"), std::string::npos);
}

TEST(CrashFuzzTest, InlineMutationsAreRejected) {
  CrashSweepOptions sweep;
  sweep.engine = EngineOptions(1);
  // value == 0 means "draw from the caller's inline RNG" — meaningless in
  // replay, so the harness refuses rather than diverging silently.
  const std::vector<WorkloadOp> ops = {
      WorkloadOp{WorkloadOp::Kind::kUpdate, 0}};
  Result<CrashSweepReport> report = CrashPointSweep(sweep, ops);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace procsim::audit
