// Deterministic-interleaving property: for every seed, the barrier-stepped
// concurrent engine must produce byte-identical access results to the
// single-threaded differential oracle replaying the same merged op stream.
// This is the equivalence proof between the latched multi-session engine
// and the paper's single-user semantics.
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
  options.sessions = 3;
  options.ops_per_session = 12;
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  options.deterministic = true;
  return options;
}

audit::CrossCheckOptions ReplayOptions(const SessionPool::Options& pool) {
  audit::CrossCheckOptions options;
  options.params = pool.engine.params;
  options.model = pool.engine.model;
  options.seed = pool.engine.seed;
  options.update_weight = pool.engine.mix.update_weight;
  options.insert_weight = pool.engine.mix.insert_weight;
  options.delete_weight = pool.engine.mix.delete_weight;
  options.min_r1_tuples = pool.engine.mix.min_r1_tuples;
  // Keep replay comparisons cheap: the digests are the property under
  // test; the full validator sweep already ran at the pool's quiesce.
  options.compare_sample = 1;
  options.validate_structures = false;
  return options;
}

TEST(ConcurrentDeterminismTest, HundredSeedsByteIdenticalToOracle) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const SessionPool::Options pool_options = PoolOptions(seed);
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
          << " diverged between concurrent engine and oracle";
    }
  }
}

TEST(ConcurrentDeterminismTest, SameSeedSameSchedule) {
  const SessionPool::Options options = PoolOptions(42);
  Result<SessionPool::RunResult> first = SessionPool::Run(options);
  Result<SessionPool::RunResult> second = SessionPool::Run(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first.ValueOrDie().executed.size(),
            second.ValueOrDie().executed.size());
  for (std::size_t i = 0; i < first.ValueOrDie().executed.size(); ++i) {
    EXPECT_EQ(first.ValueOrDie().executed[i].kind,
              second.ValueOrDie().executed[i].kind);
    EXPECT_EQ(first.ValueOrDie().executed[i].value,
              second.ValueOrDie().executed[i].value);
  }
  EXPECT_EQ(first.ValueOrDie().access_digests,
            second.ValueOrDie().access_digests);
}

}  // namespace
}  // namespace procsim::concurrent
