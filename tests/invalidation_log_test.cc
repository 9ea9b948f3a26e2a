// The §3 invalidation log as Cache and Invalidate keeps it: one valid flag
// per cache entry, and a hook called with the id of every real
// invalidation (the transaction layer points it at its write-ahead log).
#include <vector>

#include <gtest/gtest.h>

#include "proc/cache_invalidate.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "util/rng.h"

namespace procsim::proc {
namespace {

using rel::Tuple;
using rel::Value;
using Invalidations = std::vector<ProcId>;

constexpr int64_t kKeys = 40;

/// Applies `invalidations[from..]` to `bitmap`, as recovery applies the log
/// tail after a checkpoint.
std::vector<bool> Replay(std::vector<bool> bitmap,
                         const Invalidations& invalidations,
                         std::size_t from) {
  for (std::size_t i = from; i < invalidations.size(); ++i) {
    bitmap[invalidations[i]] = false;
  }
  return bitmap;
}

/// A B-tree relation R1 of keys 0..39 and a Cache and Invalidate strategy
/// whose hook records into `logged`.  Procedure `id` selects the key
/// interval passed to Prepare.
class InvalidationLogTest : public ::testing::Test {
 protected:
  InvalidationLogTest()
      : disk_(4000, &meter_), catalog_(&disk_), executor_(&catalog_, &meter_) {
    rel::Relation::Options options;
    options.tuple_width_bytes = 100;
    options.btree_column = 0;
    base_ = catalog_
                .CreateRelation("R1",
                                rel::Schema({{"key", rel::ValueType::kInt64}}),
                                options)
                .ValueOrDie();
    for (int64_t key = 0; key < kKeys; ++key) {
      (void)base_->Insert(Tuple({Value(key)}));
    }
  }

  void Prepare(const std::vector<std::pair<int64_t, int64_t>>& intervals) {
    for (std::size_t id = 0; id < intervals.size(); ++id) {
      DatabaseProcedure procedure;
      procedure.id = id;
      procedure.name = "P";
      procedure.name += std::to_string(id);
      procedure.query.base = rel::BaseSelection{"R1", intervals[id].first,
                                                intervals[id].second, {}};
      ASSERT_TRUE(strategy_.AddProcedure(procedure).ok());
    }
    ASSERT_TRUE(strategy_.Prepare().ok());
    strategy_.SetValidityMirror([this](ProcId id) { logged_.push_back(id); });
  }

  /// Inserts a row with `key` and notifies the strategy; returns the ids
  /// the hook was called with.
  Invalidations Write(int64_t key) {
    const Tuple row({Value(key)});
    {
      storage::MeteringGuard guard(&disk_);
      EXPECT_TRUE(base_->Insert(row).ok());
    }
    ivm::ChangeBatch changes;
    changes.AddInsert(row);
    const std::size_t before = logged_.size();
    strategy_.OnBatch("R1", changes);
    return Invalidations(logged_.begin() + before, logged_.end());
  }

  void Access(ProcId id) { ASSERT_TRUE(strategy_.Access(id).ok()); }

  std::vector<bool> FlagsById() const {
    std::vector<bool> flags;
    for (ProcId id = 0; id < strategy_.procedures().size(); ++id) {
      flags.push_back(strategy_.IsValid(id));
    }
    return flags;
  }

  CostMeter meter_;
  storage::SimulatedDisk disk_;
  rel::Catalog catalog_;
  rel::Executor executor_;
  CacheBudget budget_{0};
  rel::Relation* base_ = nullptr;
  CacheInvalidateStrategy strategy_{&catalog_, &executor_, &meter_, 100,
                                    &budget_, /*invalidation_cost_ms=*/60.0};
  Invalidations logged_;
};

TEST_F(InvalidationLogTest, StartsAllValid) {
  Prepare({{0, 9}, {10, 19}, {20, 29}, {30, 39}});
  EXPECT_EQ(strategy_.ValidityBitmap(), std::vector<bool>(4, true));
  EXPECT_EQ(FlagsById(), std::vector<bool>(4, true));
  EXPECT_TRUE(logged_.empty());
}

TEST_F(InvalidationLogTest, TransitionsAreLogged) {
  // Only the invalidation is logged; the re-validation changes the flag
  // and nothing else.
  Prepare({{0, 9}, {10, 19}, {20, 29}, {30, 39}});
  EXPECT_EQ(Write(25), Invalidations{2});
  EXPECT_FALSE(strategy_.IsValid(2));
  EXPECT_EQ(strategy_.ValidityBitmap(),
            (std::vector<bool>{true, true, false, true}));
  Access(2);
  EXPECT_TRUE(strategy_.IsValid(2));
  EXPECT_EQ(logged_, Invalidations{2});
  EXPECT_EQ(strategy_.ValidityBitmap(), FlagsById());
}

TEST_F(InvalidationLogTest, IdempotentTransitionsWriteNoRecords) {
  Prepare({{0, 9}, {10, 19}});
  Access(0);  // already valid: served from the cache
  meter_.Reset();
  EXPECT_EQ(Write(15), Invalidations{1});
  EXPECT_TRUE(Write(16).empty());  // already invalid
  EXPECT_EQ(logged_, Invalidations{1});
  EXPECT_EQ(strategy_.invalidation_count(), 1u);
  // One C_inval charge, for the one real invalidation.
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 60.0);
}

TEST_F(InvalidationLogTest, OutOfRangeIdsRejected) {
  Prepare({{0, 9}, {10, 19}});
  EXPECT_EQ(strategy_.Access(5).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(Write(kKeys + 5).empty());  // outside every i-lock
  EXPECT_TRUE(logged_.empty());
  EXPECT_EQ(strategy_.ValidityBitmap(), std::vector<bool>(2, true));
}

TEST_F(InvalidationLogTest, RecoverFromCheckpointPlusSuffix) {
  // The §3 recovery the WAL performs, in miniature: a checkpointed bitmap
  // minus the invalidations logged after it.  A re-validation after the
  // checkpoint is not logged, so recovery keeps that procedure invalid.
  Prepare({{0, 9}, {10, 19}, {20, 29}, {30, 39}});
  ASSERT_EQ(Write(5), Invalidations{0});
  const std::vector<bool> checkpoint = strategy_.ValidityBitmap();
  const std::size_t tail = logged_.size();
  ASSERT_EQ(Write(12), Invalidations{1});
  Access(0);

  const std::vector<bool> recovered = Replay(checkpoint, logged_, tail);
  EXPECT_FALSE(recovered[0]);  // re-validated live, invalid when recovered
  EXPECT_FALSE(recovered[1]);  // invalidated after checkpoint
  EXPECT_TRUE(recovered[2]);
  EXPECT_TRUE(recovered[3]);
  EXPECT_EQ(strategy_.ValidityBitmap(),
            (std::vector<bool>{true, false, true, true}));
}

TEST_F(InvalidationLogTest, MirrorSeesEveryAppendedRecord) {
  // Three procedures share key 15.  The hook is called once per real
  // invalidation, in the order FindBroken reports the owners: the order
  // their i-locks were set, which a recompute moves to the back.
  Prepare({{10, 19}, {15, 25}, {0, 15}});
  EXPECT_EQ(Write(15), (Invalidations{0, 1, 2}));
  EXPECT_TRUE(Write(15).empty());  // all already invalid
  Access(2);
  Access(0);
  Access(1);
  const Invalidations order =
      strategy_.lock_table().FindBroken("R1", Tuple({Value(int64_t{15})}));
  EXPECT_EQ(order, (Invalidations{2, 0, 1}));
  EXPECT_EQ(Write(15), order);
  EXPECT_EQ(logged_, (Invalidations{0, 1, 2, 2, 0, 1}));

  strategy_.SetValidityMirror(nullptr);
  Access(1);
  EXPECT_TRUE(Write(20).empty());      // cleared hook sees nothing
  EXPECT_EQ(logged_.size(), 6u);
  EXPECT_FALSE(strategy_.IsValid(1));  // but the flag still changes
}

// Property: over random streams of writes and accesses, the hook is called
// exactly for the entries FindBroken names that were valid, in its order;
// the bitmap always equals the per-id flags; and the latest checkpoint
// minus the invalidations logged after it is exactly conservative against
// the live flags.  A procedure is recovered invalid iff it was invalid at
// the checkpoint or invalidated since, so every live-invalid procedure is
// recovered invalid, and a live-valid one is recovered invalid only if it
// was re-validated after its last invalidation.
class InvalidationLogPropertyTest
    : public InvalidationLogTest,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(InvalidationLogPropertyTest, RecoveryMatchesLiveState) {
  Rng rng(GetParam());
  constexpr std::size_t kProcedures = 16;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (std::size_t id = 0; id < kProcedures; ++id) {
    const auto lo = static_cast<int64_t>(rng.Uniform(kKeys));
    const auto width = static_cast<int64_t>(rng.Uniform(8));
    intervals.emplace_back(lo, lo + width);
  }
  Prepare(intervals);
  std::vector<bool> checkpoint = strategy_.ValidityBitmap();
  std::size_t tail = 0;
  std::vector<bool> live(kProcedures, true);
  // Invalid at the checkpoint or invalidated since: what recovery must say.
  std::vector<bool> conservative(kProcedures, true);
  for (int step = 0; step < 300; ++step) {
    if (rng.Bernoulli(0.5)) {
      const auto key = static_cast<int64_t>(rng.Uniform(kKeys + 8));
      Invalidations expected;
      for (ProcId id : strategy_.lock_table().FindBroken(
               "R1", Tuple({Value(key)}))) {
        if (live[id]) expected.push_back(id);
      }
      ASSERT_EQ(Write(key), expected) << "step " << step;
      for (ProcId id : expected) {
        live[id] = false;
        conservative[id] = false;
      }
    } else {
      const ProcId id = rng.Uniform(kProcedures);
      Access(id);
      live[id] = true;
    }
    ASSERT_EQ(strategy_.ValidityBitmap(), live) << "step " << step;
    ASSERT_EQ(FlagsById(), live) << "step " << step;
    if (rng.Bernoulli(0.05)) {
      checkpoint = strategy_.ValidityBitmap();
      tail = logged_.size();
      conservative = live;
    }
    if (rng.Bernoulli(0.03)) {
      const std::vector<bool> recovered = Replay(checkpoint, logged_, tail);
      EXPECT_EQ(recovered, conservative) << "step " << step;
      for (ProcId p = 0; p < kProcedures; ++p) {
        if (!live[p]) {
          EXPECT_FALSE(recovered[p]) << "step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationLogPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace procsim::proc
