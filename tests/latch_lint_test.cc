// Library-level tests for tools/latch_lint: the static analyzer must parse
// the real LatchRank table, accept rank-legal fixtures, flag planted
// inversions — including ones on paths no runtime test ever executes — and
// enforce the justified-suppression contract.
#include "latch_lint/lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace procsim::lint {
namespace {

/// A minimal rank table for the analyzer fixtures below, a subset of the
/// real one in src/util/latch.h (which ParsesTheRealRankTableShape reads).
constexpr char kLatchHeader[] = R"cc(
namespace procsim::concurrent {
enum class LatchRank : int {
  kSessionPool = 0,
  kDatabase = 10,
  kStrategySlot = 20,
  kRete = 30,
  kReteMemory = 35,
  kILock = 40,
  kWal = 52,
  kPageTable = 55,
  kBufferCache = 60,
};
}  // namespace procsim::concurrent
)cc";

RankTable Ranks() { return ParseRankTable(kLatchHeader); }

LintResult Analyze(const std::vector<SourceFile>& files) {
  return AnalyzeSources(files, Ranks());
}

TEST(LatchLintTest, ParsesTheRankTable) {
  const RankTable ranks = Ranks();
  ASSERT_FALSE(ranks.empty());
  EXPECT_EQ(ranks.value_by_name.size(), 9u);
  EXPECT_EQ(ranks.value_by_name.at("kDatabase"), 10);
  EXPECT_EQ(ranks.value_by_name.at("kBufferCache"), 60);
  EXPECT_EQ(ranks.name_by_value.at(35), "kReteMemory");
}

TEST(LatchLintTest, ParsesTheRealRankTableShape) {
  // The real table's ranks must strictly increase in declaration order: the
  // enum lists the latches in the order they nest, so a value out of order
  // (or repeated) makes the documented hierarchy disagree with the one the
  // runtime checker and the lint enforce.
  const std::string path =
      std::string(PROCSIM_SOURCE_DIR) + "/src/util/latch.h";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream source;
  source << in.rdbuf();
  const RankTable ranks = ParseRankTable(source.str());
  ASSERT_GE(ranks.declared.size(), 2u) << "no LatchRank enum in " << path;
  EXPECT_EQ(ranks.declared.size(), ranks.value_by_name.size())
      << "a rank name is declared twice";
  for (std::size_t i = 1; i < ranks.declared.size(); ++i) {
    EXPECT_GT(ranks.declared[i].second, ranks.declared[i - 1].second)
        << ranks.declared[i].first << " is declared after "
        << ranks.declared[i - 1].first << " but does not rank above it";
  }
}

TEST(LatchLintTest, UpwardNestingIsClean) {
  const SourceFile file{"src/fake/upward.cc", R"cc(
#include "concurrent/latch.h"
namespace procsim::fake {
class Upward {
 public:
  void Op();
 private:
  concurrent::RankedMutex db_{concurrent::LatchRank::kDatabase, "db"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Upward::Op() {
  concurrent::RankedLockGuard db_guard(db_);
  concurrent::RankedLockGuard cache_guard(cache_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
  EXPECT_EQ(result.mutexes_found, 2u);
  EXPECT_EQ(result.guard_sites_found, 2u);
  EXPECT_GE(result.edges_checked, 1u);
}

TEST(LatchLintTest, DirectInversionIsFlagged) {
  const SourceFile file{"src/fake/inverted.cc", R"cc(
namespace procsim::fake {
class Inverted {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Inverted::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  concurrent::RankedLockGuard log_guard(log_);  // kWal under kBufferCache
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  ASSERT_EQ(result.violations.size(), 1u) << RenderReport(result);
  const Violation& violation = result.violations[0];
  EXPECT_EQ(violation.from_rank, 60);
  EXPECT_EQ(violation.to_rank, 52);
  EXPECT_EQ(violation.to_file, "src/fake/inverted.cc");
  EXPECT_NE(violation.message.find("rank inversion"), std::string::npos);
  EXPECT_NE(violation.message.find("log_"), std::string::npos);
  EXPECT_NE(violation.message.find("cache_"), std::string::npos);
}

TEST(LatchLintTest, SameRankNestingIsFlagged) {
  const SourceFile file{"src/fake/stripes.cc", R"cc(
namespace procsim::fake {
void DoubleStripeHold() {
  LatchStripes stripes(LatchRank::kILock, "stripe", 4);
  concurrent::RankedLockGuard first(stripes.At(0));
  concurrent::RankedLockGuard second(stripes.At(1));
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  ASSERT_EQ(result.violations.size(), 1u) << RenderReport(result);
  EXPECT_NE(result.violations[0].message.find("same-rank re-entry"),
            std::string::npos);
}

TEST(LatchLintTest, GuardTypeAliasesAreRecognized) {
  // buffer_cache.cc-style `using Guard = concurrent::RankedLockGuard;`.
  const SourceFile file{"src/fake/aliased.cc", R"cc(
namespace procsim::fake {
using Guard = concurrent::RankedLockGuard;
class Aliased {
 public:
  void Op();
 private:
  concurrent::RankedMutex table_{concurrent::LatchRank::kPageTable, "t"};
  concurrent::RankedMutex slot_{concurrent::LatchRank::kStrategySlot, "s"};
};
void Aliased::Op() {
  Guard table_guard(table_);
  Guard slot_guard(slot_);  // kStrategySlot under kPageTable
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  ASSERT_EQ(result.violations.size(), 1u) << RenderReport(result);
  EXPECT_EQ(result.violations[0].to_rank, 20);
  EXPECT_EQ(result.violations[0].from_rank, 55);
}

TEST(LatchLintTest, CrossFunctionInversionOnNeverExecutedPathIsFlagged) {
  // The acquisition graph must cover paths no runtime test executes: the
  // inverted path below is reachable only from Maintenance(), a function
  // nothing calls — the runtime checker can never see it, the static graph
  // must.
  const SourceFile header{"src/fake/svc.h", R"cc(
namespace procsim::fake {
class Svc {
 public:
  void Maintenance();
  void Compact();
 private:
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
  concurrent::RankedMutex ilock_{concurrent::LatchRank::kILock, "i"};
};
}  // namespace procsim::fake
)cc"};
  const SourceFile impl{"src/fake/svc.cc", R"cc(
namespace procsim::fake {
void Svc::Compact() {
  concurrent::RankedLockGuard ilock_guard(ilock_);
}
void Svc::Maintenance() {
  concurrent::RankedLockGuard cache_guard(cache_);
  this->Compact();  // transitively acquires kILock under kBufferCache
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({header, impl});
  ASSERT_EQ(result.violations.size(), 1u) << RenderReport(result);
  const Violation& violation = result.violations[0];
  EXPECT_EQ(violation.from_rank, 60);
  EXPECT_EQ(violation.to_rank, 40);
  ASSERT_FALSE(violation.call_chain.empty());
  EXPECT_NE(violation.call_chain.front().find("Compact"), std::string::npos);
}

TEST(LatchLintTest, RecursionDoesNotFeedAFunctionItsOwnAcquisitions) {
  // Engine::Access -> Strategy::Access dispatch: a callee sharing the
  // caller's name is skipped, otherwise every virtual-dispatch layer would
  // report a bogus self-edge.
  const SourceFile file{"src/fake/dispatch.cc", R"cc(
namespace procsim::fake {
class Layered {
 public:
  void Access();
 private:
  concurrent::RankedMutex db_{concurrent::LatchRank::kDatabase, "db"};
  Layered* inner_ = nullptr;
};
void Layered::Access() {
  concurrent::RankedLockGuard db_guard(db_);
  inner_->Access();
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
}

TEST(LatchLintTest, JustifiedSuppressionSilencesTheEdge) {
  const SourceFile file{"src/fake/suppressed.cc", R"cc(
namespace procsim::fake {
class Suppressed {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Suppressed::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  // latch-lint: allow(kBufferCache->kWal) because this fixture
  // documents the suppression syntax; real code must state a real reason.
  concurrent::RankedLockGuard log_guard(log_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
  EXPECT_EQ(result.suppressed_edges, 1u);
}

TEST(LatchLintTest, SuppressionWithoutJustificationIsRejected) {
  const SourceFile file{"src/fake/unjustified.cc", R"cc(
namespace procsim::fake {
class Unjustified {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Unjustified::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  // latch-lint: allow(kBufferCache->kWal)
  concurrent::RankedLockGuard log_guard(log_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_FALSE(result.ok());
  // The bare allow() is rejected AND does not suppress: both findings land.
  ASSERT_EQ(result.bad_suppressions.size(), 1u);
  EXPECT_NE(result.bad_suppressions[0].message.find("justification"),
            std::string::npos);
  EXPECT_EQ(result.violations.size(), 1u) << RenderReport(result);
}

TEST(LatchLintTest, SuppressionOfADifferentEdgeDoesNotApply) {
  const SourceFile file{"src/fake/mismatched.cc", R"cc(
namespace procsim::fake {
class Mismatched {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Mismatched::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  // latch-lint: allow(kRete->kReteMemory) because this names another edge.
  concurrent::RankedLockGuard log_guard(log_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_EQ(result.violations.size(), 1u) << RenderReport(result);
  EXPECT_EQ(result.suppressed_edges, 0u);
}

TEST(LatchLintTest, SuppressionKeyToleratesInteriorWhitespace) {
  // `allow( kBufferCache -> kWal )` must match the same edge as
  // the canonical spelling: keys are compared whitespace-normalized.
  const SourceFile file{"src/fake/spacing.cc", R"cc(
namespace procsim::fake {
class Spacing {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Spacing::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  // latch-lint: allow( kBufferCache -> kWal ) because fixture
  concurrent::RankedLockGuard log_guard(log_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
  EXPECT_EQ(result.suppressed_edges, 1u);
}

TEST(LatchLintTest, SuppressionTagMatchesCaseInsensitively) {
  const SourceFile file{"src/fake/casing.cc", R"cc(
namespace procsim::fake {
class Casing {
 public:
  void Op();
 private:
  concurrent::RankedMutex log_{concurrent::LatchRank::kWal, "l"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Casing::Op() {
  concurrent::RankedLockGuard cache_guard(cache_);
  // Latch-Lint: Allow(kBufferCache->kWal) Because fixture
  concurrent::RankedLockGuard log_guard(log_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
  EXPECT_EQ(result.suppressed_edges, 1u);
}

TEST(LatchLintTest, UnmatchedSuppressionIsReportedAsUnused) {
  // A well-formed suppression naming an edge the code never takes is stale
  // noise: it must surface as an unused-suppression finding.
  const SourceFile file{"src/fake/stale.cc", R"cc(
namespace procsim::fake {
class Stale {
 public:
  void Op();
 private:
  concurrent::RankedMutex db_{concurrent::LatchRank::kDatabase, "db"};
  concurrent::RankedMutex cache_{concurrent::LatchRank::kBufferCache, "c"};
};
void Stale::Op() {
  concurrent::RankedLockGuard db_guard(db_);
  // latch-lint: allow(kBufferCache->kDatabase) because this edge is legal
  concurrent::RankedLockGuard cache_guard(cache_);
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.violations.empty()) << RenderReport(result);
  ASSERT_EQ(result.unused_suppressions.size(), 1u);
  EXPECT_NE(result.unused_suppressions[0].message.find("unused suppression"),
            std::string::npos);
}

TEST(LatchLintTest, ScopedGuardReleaseEndsTheEdge) {
  // The Rete memory pattern: the first guard's scope closes before the
  // second same-rank guard is taken, so there is no held edge.
  const SourceFile file{"src/fake/scoped.cc", R"cc(
namespace procsim::fake {
class Scoped {
 public:
  void Op();
 private:
  concurrent::RankedMutex a_{concurrent::LatchRank::kReteMemory, "a"};
  concurrent::RankedMutex b_{concurrent::LatchRank::kReteMemory, "b"};
};
void Scoped::Op() {
  {
    concurrent::RankedLockGuard a_guard(a_);
  }
  {
    concurrent::RankedLockGuard b_guard(b_);
  }
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  EXPECT_TRUE(result.ok()) << RenderReport(result);
}

TEST(LatchLintTest, StdGuardsOverRankedMutexesAreRecognized) {
  const SourceFile file{"src/fake/stdguards.cc", R"cc(
namespace procsim::fake {
class StdGuards {
 public:
  void Op();
 private:
  concurrent::RankedSharedMutex db_{concurrent::LatchRank::kDatabase, "db"};
  concurrent::RankedMutex pool_{concurrent::LatchRank::kSessionPool, "p"};
};
void StdGuards::Op() {
  std::shared_lock<concurrent::RankedSharedMutex> db_guard(db_);
  std::lock_guard<concurrent::RankedMutex> pool_guard(pool_);  // 0 under 10
}
}  // namespace procsim::fake
)cc"};
  const LintResult result = Analyze({file});
  ASSERT_EQ(result.violations.size(), 1u) << RenderReport(result);
  EXPECT_EQ(result.violations[0].to_rank, 0);
  EXPECT_EQ(result.violations[0].from_rank, 10);
}

}  // namespace
}  // namespace procsim::lint
