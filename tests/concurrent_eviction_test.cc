// Concurrent-eviction coverage: sessions racing against cache-budget
// evictions must never change an answer.  Free-running mode (TSan-gated via
// the Concurrent* suite name) races real threads against the budget's LRU;
// deterministic mode proves 100 seeds of barrier-stepped interleavings stay
// byte-identical to the single-threaded oracle replaying the same merged op
// stream under the same tiny budget.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/crosscheck.h"
#include "concurrent/session_pool.h"
#include "sim/workload.h"

namespace procsim::concurrent {
namespace {

SessionPool::Options PoolOptions(uint64_t seed) {
  SessionPool::Options options;
  options.engine.params.N = 80;
  options.engine.params.f_R2 = 0.1;
  options.engine.params.f_R3 = 0.1;
  options.engine.params.l = 2;
  options.engine.params.N1 = 3;
  options.engine.params.N2 = 3;
  options.engine.params.SF = 0.5;
  options.engine.params.f = 0.1;
  options.engine.params.f2 = 0.3;
  options.engine.seed = seed;
  // Adversarially tiny: results are ~8 tuples at S=100 bytes, so every
  // strategy's cached objects churn through the budget constantly.
  options.engine.config.cache_budget_bytes = 2048;
  options.sessions = 3;
  options.ops_per_session = 12;
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  return options;
}

audit::CrossCheckOptions ReplayOptions(const SessionPool::Options& pool) {
  audit::CrossCheckOptions options;
  // The oracle replays under the SAME engine options, budget included: the
  // digests are the property under test, the validator sweep already ran
  // at the pool's quiesce.
  options.engine = pool.engine;
  options.compare_sample = 1;
  options.validate_structures = false;
  return options;
}

TEST(ConcurrentEvictionTest, FreeRunningStressAcrossSeeds) {
  for (uint64_t seed = 1001; seed <= 1004; ++seed) {
    SessionPool::Options options = PoolOptions(seed);
    options.sessions = 4;
    options.ops_per_session = 48;
    options.deterministic = false;
    Result<SessionPool::RunResult> run = SessionPool::Run(options);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString();
    const SessionPool::RunResult& result = run.ValueOrDie();
    // The budget must have been under real pressure, and the quiesce-time
    // sweep (oracle comparison + ValidateCacheBudget) already passed inside
    // Run for the state the races left behind.
    EXPECT_GT(result.budget_evictions, 0u)
        << "seed " << seed << ": budget never forced an eviction";
    EXPECT_LE(result.budget_accounted_bytes,
              options.engine.config.cache_budget_bytes)
        << "seed " << seed;
    EXPECT_GT(result.accesses, 0u);
    EXPECT_GT(result.mutations, 0u);
  }
}

TEST(ConcurrentEvictionTest, HundredSeedsDeterministicUnderTinyBudget) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SessionPool::Options pool_options = PoolOptions(seed);
    pool_options.deterministic = true;
    Result<SessionPool::RunResult> run = SessionPool::Run(pool_options);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString();
    const SessionPool::RunResult& result = run.ValueOrDie();
    ASSERT_EQ(result.executed.size(),
              pool_options.sessions * pool_options.ops_per_session);

    std::vector<std::string> oracle_digests;
    Result<audit::CrossCheckReport> replay = audit::RunOpStream(
        ReplayOptions(pool_options), result.executed, &oracle_digests);
    ASSERT_TRUE(replay.ok()) << "seed " << seed << ": "
                             << replay.status().ToString();
    ASSERT_EQ(result.access_digests.size(), oracle_digests.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < oracle_digests.size(); ++i) {
      ASSERT_EQ(result.access_digests[i], oracle_digests[i])
          << "seed " << seed << ": access #" << i
          << " diverged under eviction pressure";
    }
  }
}

TEST(ConcurrentEvictionTest, DeterministicRunsActuallyEvict) {
  // Guard against the tiny budget silently becoming roomy as parameters
  // drift: the determinism proof above is vacuous unless evictions fire.
  SessionPool::Options options = PoolOptions(/*seed=*/7);
  options.deterministic = true;
  Result<SessionPool::RunResult> run = SessionPool::Run(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.ValueOrDie().budget_evictions, 0u);
}

}  // namespace
}  // namespace procsim::concurrent
