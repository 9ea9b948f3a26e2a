// WriteAheadLog unit coverage: LSN sequencing, payload round-trips, force
// metering, prefix truncation with its recovery guard, ResetFrom (the
// recover-the-recovered seed path) and the structural consistency checker.
#include "storage/wal.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/cost_meter.h"
#include "util/status.h"

namespace procsim::storage {
namespace {

TEST(WalTest, AppendsSequenceLsnsAndRoundTripPayloads) {
  WriteAheadLog wal;
  EXPECT_EQ(wal.next_lsn(), 1u);
  EXPECT_EQ(wal.AppendBegin(7), 1u);
  EXPECT_EQ(wal.AppendMutation(7, 3, 12345), 2u);
  EXPECT_EQ(wal.AppendInvalidate(7, 4), 3u);
  EXPECT_EQ(wal.AppendCommit(7), 4u);
  EXPECT_EQ(wal.AppendAbort(8), 5u);
  EXPECT_EQ(wal.AppendCheckpoint({true, false, true}), 6u);
  EXPECT_EQ(wal.size(), 6u);
  EXPECT_EQ(wal.next_lsn(), 7u);

  const std::vector<WalRecord> records = wal.Snapshot();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].kind, WalRecord::Kind::kBegin);
  EXPECT_EQ(records[0].txn, 7u);
  EXPECT_EQ(records[1].kind, WalRecord::Kind::kMutation);
  EXPECT_EQ(records[1].a, 3u);
  EXPECT_EQ(records[1].b, 12345u);
  EXPECT_EQ(records[2].kind, WalRecord::Kind::kInvalidate);
  EXPECT_EQ(records[2].txn, 7u);
  EXPECT_EQ(records[2].a, 4u);
  EXPECT_EQ(records[3].kind, WalRecord::Kind::kCommit);
  EXPECT_EQ(records[4].kind, WalRecord::Kind::kAbort);
  EXPECT_EQ(records[4].txn, 8u);
  EXPECT_EQ(records[5].kind, WalRecord::Kind::kCheckpoint);
  EXPECT_EQ(records[5].txn, 0u);
  EXPECT_EQ(records[5].bitmap, (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(wal.CheckConsistency().ok());
}

TEST(WalTest, ForceChargesTheConfiguredCost) {
  CostMeter meter;
  WriteAheadLog wal(&meter, /*force_cost_ms=*/30.0);
  EXPECT_DOUBLE_EQ(wal.force_cost_ms(), 30.0);
  wal.Force();
  wal.Force();
  EXPECT_DOUBLE_EQ(meter.total_ms(), 60.0);
}

TEST(WalTest, ZeroCostForceChargesNothing) {
  CostMeter meter;
  WriteAheadLog wal(&meter, /*force_cost_ms=*/0.0);
  wal.Force();
  EXPECT_DOUBLE_EQ(meter.total_ms(), 0.0);
}

TEST(WalTest, TruncateDropsPrefixAndGuardsLsnSpace) {
  WriteAheadLog wal;
  wal.AppendBegin(1);
  wal.AppendMutation(1, 1, 99);
  wal.AppendCommit(1);
  wal.AppendBegin(2);
  wal.TruncateThrough(3);
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(wal.truncated_through(), 3u);
  EXPECT_EQ(wal.Snapshot().front().kind, WalRecord::Kind::kBegin);
  EXPECT_EQ(wal.Snapshot().front().txn, 2u);
  // LSNs keep advancing past the truncation point; the checker accepts the
  // surviving suffix.
  EXPECT_EQ(wal.AppendCommit(2), 5u);
  EXPECT_TRUE(wal.CheckConsistency().ok());
  // Truncation points never regress.
  wal.TruncateThrough(2);
  EXPECT_EQ(wal.truncated_through(), 3u);
}

TEST(WalTest, ResetFromSeedsRecordsAndResumesLsns) {
  WriteAheadLog original;
  original.AppendBegin(1);
  original.AppendMutation(1, 2, 777);
  original.AppendCommit(1);

  WriteAheadLog revived;
  ASSERT_TRUE(revived.ResetFrom(original.Snapshot()).ok());
  EXPECT_EQ(revived.size(), 3u);
  EXPECT_EQ(revived.next_lsn(), 4u);
  EXPECT_TRUE(revived.CheckConsistency().ok());
  // New history continues the sequence without colliding.
  EXPECT_EQ(revived.AppendBegin(2), 4u);

  // A sliced prefix is equally valid seed material (the crash harness cuts
  // at record boundaries).
  std::vector<WalRecord> prefix = original.Snapshot();
  prefix.resize(2);
  WriteAheadLog from_prefix;
  ASSERT_TRUE(from_prefix.ResetFrom(prefix).ok());
  EXPECT_EQ(from_prefix.next_lsn(), 3u);
}

TEST(WalTest, ResetFromRejectsNonMonotonicLsns) {
  WriteAheadLog wal;
  wal.AppendBegin(1);
  wal.AppendCommit(1);
  std::vector<WalRecord> shuffled = wal.Snapshot();
  std::swap(shuffled[0], shuffled[1]);
  WriteAheadLog target;
  const Status st = target.ResetFrom(shuffled);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(target.size(), 0u);  // the failed reset left nothing behind
}

TEST(WalTest, ConsistencyRejectsDoubleTermination) {
  WriteAheadLog wal;
  wal.AppendBegin(1);
  wal.AppendCommit(1);
  wal.AppendCommit(1);  // second commit point for the same transaction
  const Status st = wal.CheckConsistency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("terminated twice"), std::string::npos);

  WriteAheadLog mixed;
  mixed.AppendBegin(3);
  mixed.AppendCommit(3);
  mixed.AppendAbort(3);  // commit then abort is equally malformed
  EXPECT_FALSE(mixed.CheckConsistency().ok());
}

}  // namespace
}  // namespace procsim::storage
