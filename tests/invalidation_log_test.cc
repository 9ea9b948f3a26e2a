#include "proc/invalidation_log.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace procsim::proc {
namespace {

using Invalidations = std::vector<ProcId>;

/// Routes every invalidation `log` mirrors into `sink` — the stand-in for
/// the write-ahead log the transaction layer mirrors into.
void MirrorInto(InvalidationLog* log, Invalidations* sink) {
  log->SetMirror([sink](ProcId id) { sink->push_back(id); });
}

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

TEST(InvalidationLogTest, StartsAllValid) {
  InvalidationLog log(4);
  for (ProcId id = 0; id < 4; ++id) EXPECT_TRUE(log.IsValid(id));
  EXPECT_EQ(log.Snapshot(), std::vector<bool>(4, true));
}

TEST(InvalidationLogTest, TransitionsAreLogged) {
  // Only the invalidation is logged; the re-validation changes the bitmap
  // and nothing else.
  InvalidationLog log(4);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(2).ok());
  EXPECT_FALSE(log.IsValid(2));
  EXPECT_EQ(log.Snapshot(), (std::vector<bool>{true, true, false, true}));
  ASSERT_TRUE(log.MarkValid(2).ok());
  EXPECT_TRUE(log.IsValid(2));
  EXPECT_EQ(mirrored, Invalidations{2});
}

TEST(InvalidationLogTest, IdempotentTransitionsWriteNoRecords) {
  InvalidationLog log(2);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkValid(0).ok());    // already valid
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkInvalid(1).ok());  // already invalid
  EXPECT_EQ(mirrored, Invalidations{1});
}

TEST(InvalidationLogTest, OutOfRangeIdsRejected) {
  InvalidationLog log(2);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  EXPECT_FALSE(log.MarkInvalid(5).ok());
  EXPECT_FALSE(log.MarkValid(5).ok());
  EXPECT_TRUE(mirrored.empty());
  EXPECT_EQ(log.Snapshot(), std::vector<bool>(2, true));
}

TEST(InvalidationLogTest, RecoverFromCheckpointPlusSuffix) {
  // The §3 recovery the WAL performs, in miniature: a snapshot minus the
  // invalidations mirrored after it.  A re-validation after the snapshot is
  // not logged, so recovery keeps that procedure invalid.
  InvalidationLog log(4);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(0).ok());
  const std::vector<bool> checkpoint = log.Snapshot();
  const std::size_t tail = mirrored.size();
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkValid(0).ok());

  const std::vector<bool> recovered = Replay(checkpoint, mirrored, tail);
  EXPECT_FALSE(recovered[0]);  // re-validated live, invalid when recovered
  EXPECT_FALSE(recovered[1]);  // invalidated after checkpoint
  EXPECT_TRUE(recovered[2]);
  EXPECT_TRUE(recovered[3]);
  EXPECT_EQ(log.Snapshot(), (std::vector<bool>{true, false, true, true}));
}

TEST(InvalidationLogTest, MirrorSeesEveryAppendedRecord) {
  InvalidationLog log(3);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkInvalid(1).ok());  // idempotent: no record, no mirror
  ASSERT_TRUE(log.MarkValid(1).ok());    // re-validation: no record
  ASSERT_TRUE(log.MarkInvalid(1).ok());  // a real invalidation again
  EXPECT_EQ(mirrored, (Invalidations{1, 1}));
  log.SetMirror(nullptr);
  ASSERT_TRUE(log.MarkInvalid(2).ok());
  EXPECT_EQ(mirrored.size(), 2u);  // cleared hook sees nothing
  EXPECT_FALSE(log.IsValid(2));    // but the bitmap still changes
}

// Property: over random transition streams, the latest snapshot minus the
// invalidations mirrored after it is exactly conservative against the live
// bitmap.  A procedure is recovered invalid iff it was invalid at the
// snapshot or invalidated since, so every live-invalid procedure is
// recovered invalid, and a live-valid one is recovered invalid only if it
// was re-validated after its last invalidation.
class InvalidationLogPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(InvalidationLogPropertyTest, RecoveryMatchesLiveState) {
  Rng rng(GetParam());
  constexpr std::size_t kProcedures = 16;
  InvalidationLog log(kProcedures);
  Invalidations mirrored;
  MirrorInto(&log, &mirrored);
  std::vector<bool> checkpoint = log.Snapshot();
  std::size_t tail = 0;
  std::vector<bool> live(kProcedures, true);
  // Invalid at the snapshot or invalidated since: what recovery must say.
  std::vector<bool> conservative(kProcedures, true);
  for (int step = 0; step < 500; ++step) {
    const ProcId id = rng.Uniform(kProcedures);
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(log.MarkInvalid(id).ok());
      live[id] = false;
      conservative[id] = false;
    } else {
      ASSERT_TRUE(log.MarkValid(id).ok());
      live[id] = true;
    }
    if (rng.Bernoulli(0.05)) {
      checkpoint = log.Snapshot();
      tail = mirrored.size();
      conservative = live;
    }
    if (rng.Bernoulli(0.03)) {
      const std::vector<bool> recovered = Replay(checkpoint, mirrored, tail);
      EXPECT_EQ(recovered, conservative) << "step " << step;
      for (ProcId p = 0; p < kProcedures; ++p) {
        if (!live[p]) {
          EXPECT_FALSE(recovered[p]) << "step " << step;
        }
      }
    }
  }
  EXPECT_EQ(log.Snapshot(), live);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationLogPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace procsim::proc
