// Transactional concurrency stress (TSan-gated via tools/ci.sh: the suite
// name matches the tsan preset's Concurrent filter).  Sessions race through
// the engine's full Begin/lock/queue/group-commit path; larger commit
// groups defer the database apply to the flush, so these runs exercise the
// WAL, the lock table and the group-commit queue under real contention.
#include <cstdint>

#include <gtest/gtest.h>

#include "concurrent/session_pool.h"

namespace procsim::concurrent {
namespace {

SessionPool::Options StressOptions(uint64_t seed) {
  SessionPool::Options options;
  options.engine.params.N = 120;
  options.engine.params.f_R2 = 0.1;
  options.engine.params.f_R3 = 0.1;
  options.engine.params.l = 2;
  options.engine.params.N1 = 3;
  options.engine.params.N2 = 3;
  options.engine.params.SF = 0.5;
  options.engine.params.f = 0.1;
  options.engine.params.f2 = 0.3;
  options.engine.seed = seed;
  options.sessions = 4;
  options.ops_per_session = 40;
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  options.deterministic = false;
  return options;
}

TEST(ConcurrentTxnStressTest, FreeRunningGroupCommitStaysConsistent) {
  SessionPool::Options options = StressOptions(20260807);
  options.engine.config.group_commit_size = 4;
  options.engine.config.wal_force_cost_ms = 5.0;
  Result<SessionPool::RunResult> run = SessionPool::Run(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const SessionPool::RunResult& result = run.ValueOrDie();
  EXPECT_EQ(result.executed.size(),
            options.sessions * options.ops_per_session);
  EXPECT_GT(result.accesses, 0u);
  EXPECT_GT(result.mutations, 0u);
}

TEST(ConcurrentTxnStressTest, GroupCommitUnderTinyCacheBudget) {
  // Constant eviction under deferred group apply: the budget's byte
  // accounting and the commit queue must not race.
  SessionPool::Options options = StressOptions(4242);
  options.engine.config.group_commit_size = 3;
  options.engine.config.cache_budget_bytes = 512;
  options.ops_per_session = 30;
  Result<SessionPool::RunResult> run = SessionPool::Run(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

TEST(ConcurrentTxnStressTest, ManySeedsManyGroupSizes) {
  // Scheduler-dependent races need chances: several seeds across the
  // group-size axis, including the degenerate immediate-commit case.
  for (uint64_t seed : {3u, 5u, 8u}) {
    for (std::size_t group : {1u, 2u, 6u}) {
      SessionPool::Options options = StressOptions(seed);
      options.engine.config.group_commit_size = group;
      options.ops_per_session = 15;
      Result<SessionPool::RunResult> run = SessionPool::Run(options);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " group " << group << ": "
                            << run.status().ToString();
    }
  }
}

TEST(ConcurrentTxnStressTest, HundredSeedsDeterministicUnderGroupCommit) {
  // Barrier-stepped schedules are a pure function of the seed even with
  // deferred group apply: same seed, same merged op order, same access
  // digests — run twice and compare byte-for-byte.
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SessionPool::Options options = StressOptions(seed);
    options.engine.config.group_commit_size = 3;
    options.sessions = 2;
    options.ops_per_session = 8;
    options.deterministic = true;
    Result<SessionPool::RunResult> first = SessionPool::Run(options);
    Result<SessionPool::RunResult> second = SessionPool::Run(options);
    ASSERT_TRUE(first.ok()) << "seed " << seed << ": "
                            << first.status().ToString();
    ASSERT_TRUE(second.ok()) << "seed " << seed << ": "
                             << second.status().ToString();
    ASSERT_EQ(first.ValueOrDie().executed.size(),
              second.ValueOrDie().executed.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < first.ValueOrDie().executed.size(); ++i) {
      ASSERT_EQ(first.ValueOrDie().executed[i].kind,
                second.ValueOrDie().executed[i].kind)
          << "seed " << seed << " op " << i;
      ASSERT_EQ(first.ValueOrDie().executed[i].value,
                second.ValueOrDie().executed[i].value)
          << "seed " << seed << " op " << i;
    }
    ASSERT_EQ(first.ValueOrDie().access_digests,
              second.ValueOrDie().access_digests)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace procsim::concurrent
