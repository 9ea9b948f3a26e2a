// Free-running multi-session stress: sessions race through the latched
// engine with no coordination; every access checks strategy agreement in
// place, and the full oracle + validator sweep runs at quiesce.  Built to
// run under ThreadSanitizer (tools/ci.sh tsan preset) — a data race
// anywhere in the latched structures fails the run.
#include <cstdint>

#include <gtest/gtest.h>

#include "concurrent/session_pool.h"

namespace procsim::concurrent {
namespace {

SessionPool::Options StressOptions(uint64_t seed) {
  SessionPool::Options options;
  options.engine.params.N = 160;
  options.engine.params.f_R2 = 0.1;
  options.engine.params.f_R3 = 0.1;
  options.engine.params.l = 3;
  options.engine.params.N1 = 4;
  options.engine.params.N2 = 4;
  options.engine.params.SF = 0.5;
  options.engine.params.f = 0.08;
  options.engine.params.f2 = 0.3;
  options.engine.seed = seed;
  options.sessions = 4;
  options.ops_per_session = 60;
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  options.deterministic = false;
  return options;
}

TEST(ConcurrentStressTest, FreeRunningSessionsStayConsistent) {
  const SessionPool::Options options = StressOptions(20260806);
  Result<SessionPool::RunResult> run = SessionPool::Run(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const SessionPool::RunResult& result = run.ValueOrDie();
  EXPECT_EQ(result.executed.size(),
            options.sessions * options.ops_per_session);
  EXPECT_GT(result.accesses, 0u);
  EXPECT_GT(result.mutations, 0u);
  // Every op either accessed or mutated (deletes against a minimum-size
  // table still count as executed mutations here — they are no-ops).
  EXPECT_EQ(result.accesses + result.mutations, result.executed.size());
}

TEST(ConcurrentStressTest, ModelTwoThreeWayJoins) {
  SessionPool::Options options = StressOptions(7);
  options.engine.model = cost::ProcModel::kModel2;
  options.ops_per_session = 30;
  Result<SessionPool::RunResult> run = SessionPool::Run(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

TEST(ConcurrentStressTest, ManySmallRounds) {
  // Several independent seeds: a scheduler-dependent race needs chances.
  for (uint64_t seed : {11u, 22u, 33u}) {
    SessionPool::Options options = StressOptions(seed);
    options.ops_per_session = 25;
    Result<SessionPool::RunResult> run = SessionPool::Run(options);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString();
  }
}

}  // namespace
}  // namespace procsim::concurrent
