#include "proc/invalidation_log.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace procsim::proc {
namespace {

using Kind = InvalidationLog::Record::Kind;
using Records = std::vector<InvalidationLog::Record>;

/// Routes every record `log` mirrors into `sink` — the stand-in for the
/// write-ahead log the transaction layer mirrors into.
void MirrorInto(InvalidationLog* log, Records* sink) {
  log->SetMirror([sink](const InvalidationLog::Record& record) {
    sink->push_back(record);
  });
}

/// Replays `records[from..]` onto `bitmap`, as recovery replays the log
/// tail after a checkpoint.
std::vector<bool> Replay(std::vector<bool> bitmap, const Records& records,
                         std::size_t from) {
  for (std::size_t i = from; i < records.size(); ++i) {
    bitmap[records[i].procedure] = records[i].kind == Kind::kValidate;
  }
  return bitmap;
}

TEST(InvalidationLogTest, StartsAllValid) {
  InvalidationLog log(4);
  for (ProcId id = 0; id < 4; ++id) EXPECT_TRUE(log.IsValid(id));
  EXPECT_EQ(log.Snapshot(), std::vector<bool>(4, true));
}

TEST(InvalidationLogTest, TransitionsAreLogged) {
  InvalidationLog log(4);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(2).ok());
  EXPECT_FALSE(log.IsValid(2));
  EXPECT_EQ(log.Snapshot(), (std::vector<bool>{true, true, false, true}));
  ASSERT_TRUE(log.MarkValid(2).ok());
  EXPECT_TRUE(log.IsValid(2));
  ASSERT_EQ(mirrored.size(), 2u);
  EXPECT_EQ(mirrored[0].kind, Kind::kInvalidate);
  EXPECT_EQ(mirrored[1].kind, Kind::kValidate);
  EXPECT_EQ(mirrored[0].procedure, 2u);
  EXPECT_EQ(mirrored[1].procedure, 2u);
}

TEST(InvalidationLogTest, IdempotentTransitionsWriteNoRecords) {
  InvalidationLog log(2);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkValid(0).ok());    // already valid
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkInvalid(1).ok());  // already invalid
  EXPECT_EQ(mirrored.size(), 1u);
}

TEST(InvalidationLogTest, OutOfRangeIdsRejected) {
  InvalidationLog log(2);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  EXPECT_FALSE(log.MarkInvalid(5).ok());
  EXPECT_FALSE(log.MarkValid(5).ok());
  EXPECT_TRUE(mirrored.empty());
  EXPECT_EQ(log.Snapshot(), std::vector<bool>(2, true));
}

TEST(InvalidationLogTest, RecoverFromCheckpointPlusSuffix) {
  // The §3 recovery the WAL performs, in miniature: a snapshot plus the
  // mirrored records after it rebuild the live bitmap.
  InvalidationLog log(4);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(0).ok());
  const std::vector<bool> checkpoint = log.Snapshot();
  const std::size_t tail = mirrored.size();
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkValid(0).ok());

  const std::vector<bool> recovered = Replay(checkpoint, mirrored, tail);
  EXPECT_TRUE(recovered[0]);   // re-validated after checkpoint
  EXPECT_FALSE(recovered[1]);  // invalidated after checkpoint
  EXPECT_TRUE(recovered[2]);
  EXPECT_TRUE(recovered[3]);
  EXPECT_EQ(recovered, log.Snapshot());
}

TEST(InvalidationLogTest, MirrorSeesEveryAppendedRecord) {
  InvalidationLog log(3);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  ASSERT_TRUE(log.MarkInvalid(1).ok());
  ASSERT_TRUE(log.MarkInvalid(1).ok());  // idempotent: no record, no mirror
  ASSERT_TRUE(log.MarkValid(1).ok());
  ASSERT_EQ(mirrored.size(), 2u);
  EXPECT_EQ(mirrored[0].kind, Kind::kInvalidate);
  EXPECT_EQ(mirrored[0].procedure, 1u);
  EXPECT_EQ(mirrored[1].kind, Kind::kValidate);
  log.SetMirror(nullptr);
  ASSERT_TRUE(log.MarkInvalid(2).ok());
  EXPECT_EQ(mirrored.size(), 2u);  // cleared hook sees nothing
  EXPECT_FALSE(log.IsValid(2));    // but the bitmap still changes
}

// Property: over random transition streams, the latest snapshot plus the
// records mirrored after it always equal the live bitmap — the mirror sees
// exactly one record per real change, which is what WAL recovery needs.
class InvalidationLogPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(InvalidationLogPropertyTest, RecoveryMatchesLiveState) {
  Rng rng(GetParam());
  constexpr std::size_t kProcedures = 16;
  InvalidationLog log(kProcedures);
  Records mirrored;
  MirrorInto(&log, &mirrored);
  std::vector<bool> checkpoint = log.Snapshot();
  std::size_t tail = 0;
  std::vector<bool> shadow(kProcedures, true);
  for (int step = 0; step < 500; ++step) {
    const ProcId id = rng.Uniform(kProcedures);
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(log.MarkInvalid(id).ok());
      shadow[id] = false;
    } else {
      ASSERT_TRUE(log.MarkValid(id).ok());
      shadow[id] = true;
    }
    if (rng.Bernoulli(0.05)) {
      checkpoint = log.Snapshot();
      tail = mirrored.size();
    }
    if (rng.Bernoulli(0.03)) {
      EXPECT_EQ(Replay(checkpoint, mirrored, tail), shadow) << "step " << step;
    }
  }
  EXPECT_EQ(log.Snapshot(), shadow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationLogPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace procsim::proc
