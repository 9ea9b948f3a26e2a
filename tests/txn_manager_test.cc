// TxnManager group-commit semantics around failure: a mid-group apply
// failure must retire the already-committed prefix exactly once (no double
// apply, no duplicate WAL records), terminate the failing transaction, and
// poison the manager — plus TxnEngine::Run's guarantee that a failed op
// never leaks an open transaction holding the R1 lock.
#include "txn/txn_manager.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/workload.h"
#include "storage/wal.h"
#include "txn/engine.h"
#include "txn/lock_manager.h"
#include "util/status.h"

namespace procsim::txn {
namespace {

sim::WorkloadOp SeededUpdate(uint64_t seed) {
  return sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, seed};
}

std::size_t CountRecords(const std::vector<storage::WalRecord>& records,
                         storage::WalRecord::Kind kind, TxnId txn) {
  std::size_t count = 0;
  for (const storage::WalRecord& record : records) {
    if (record.kind == kind && record.txn == txn) ++count;
  }
  return count;
}

TEST(TxnManagerTest, FullGroupCommitsEveryTransaction) {
  storage::WriteAheadLog wal;
  LockManager locks;
  TxnManager manager(&wal, &locks, nullptr, TxnManager::Options{2});
  std::map<TxnId, int> applies;
  const auto apply_ok = [&](TxnId txn,
                            const std::vector<sim::WorkloadOp>&) -> Status {
    ++applies[txn];
    return Status::OK();
  };
  const TxnId a = manager.Begin();
  const TxnId b = manager.Begin();
  ASSERT_TRUE(manager.QueueOp(a, SeededUpdate(7)).ok());
  ASSERT_TRUE(manager.QueueOp(b, SeededUpdate(8)).ok());
  ASSERT_TRUE(manager.Commit(a, apply_ok).ok());
  ASSERT_TRUE(manager.Commit(b, apply_ok).ok());  // fills the group: flush
  EXPECT_EQ(manager.commits(), 2u);
  EXPECT_EQ(manager.pending_commits(), 0u);
  EXPECT_FALSE(manager.poisoned());
  EXPECT_EQ(applies[a], 1);
  EXPECT_EQ(applies[b], 1);
  EXPECT_TRUE(wal.CheckConsistency().ok());
}

TEST(TxnManagerTest, ApplyFailureRetiresPrefixOnceAndPoisons) {
  storage::WriteAheadLog wal;
  LockManager locks;
  TxnManager manager(&wal, &locks, nullptr, TxnManager::Options{3});
  std::map<TxnId, int> applies;
  const auto apply_ok = [&](TxnId txn,
                            const std::vector<sim::WorkloadOp>&) -> Status {
    ++applies[txn];
    return Status::OK();
  };
  const auto apply_fail = [&](TxnId txn,
                              const std::vector<sim::WorkloadOp>&) -> Status {
    ++applies[txn];
    return Status::Internal("planted apply failure");
  };
  const TxnId a = manager.Begin();
  const TxnId b = manager.Begin();
  const TxnId c = manager.Begin();
  ASSERT_TRUE(manager.QueueOp(a, SeededUpdate(7)).ok());
  ASSERT_TRUE(manager.QueueOp(b, SeededUpdate(8)).ok());
  ASSERT_TRUE(manager.QueueOp(c, SeededUpdate(9)).ok());
  ASSERT_TRUE(manager.Commit(a, apply_ok).ok());
  ASSERT_TRUE(manager.Commit(b, apply_fail).ok());
  const Status flushed = manager.Commit(c, apply_ok);  // fills: flush fails
  EXPECT_EQ(flushed.code(), StatusCode::kInternal);

  // a reached its commit point and is retired; b terminated with kAbort;
  // c never ran and stays queued behind the poison.
  EXPECT_TRUE(manager.poisoned());
  EXPECT_EQ(manager.commits(), 1u);
  EXPECT_EQ(manager.pending_commits(), 1u);
  EXPECT_EQ(applies[a], 1);
  EXPECT_EQ(applies[b], 1);
  EXPECT_EQ(applies[c], 0);

  // A retried flush must NOT re-apply a's effects or re-log its records —
  // that would double-apply mutations and break the WAL's terminate-once
  // invariant.
  const std::size_t wal_size = wal.size();
  const Status retried = manager.Flush();
  EXPECT_EQ(retried.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(applies[a], 1);
  EXPECT_EQ(applies[c], 0);
  EXPECT_EQ(wal.size(), wal_size);

  const std::vector<storage::WalRecord> records = wal.Snapshot();
  EXPECT_EQ(CountRecords(records, storage::WalRecord::Kind::kMutation, a), 1u);
  EXPECT_EQ(CountRecords(records, storage::WalRecord::Kind::kCommit, a), 1u);
  EXPECT_EQ(CountRecords(records, storage::WalRecord::Kind::kAbort, b), 1u);
  EXPECT_EQ(CountRecords(records, storage::WalRecord::Kind::kCommit, b), 0u);
  EXPECT_EQ(CountRecords(records, storage::WalRecord::Kind::kCommit, c), 0u);
  EXPECT_TRUE(wal.CheckConsistency().ok());
}

TxnEngine::Options TinyOptions(uint64_t seed) {
  TxnEngine::Options options;
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

TEST(TxnEngineRunTest, FailedAutoCommitOpDoesNotLeakItsTransaction) {
  Result<std::unique_ptr<TxnEngine>> engine = TxnEngine::Create(TinyOptions(5));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // An unseeded mutation is rejected by QueueOp AFTER the implicit
  // transaction has taken R1 exclusively; the rollback must release it.
  const Status failed = engine.ValueOrDie()->Run(
      {sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 0}});
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ValueOrDie()->locks().held_count(1), 0u);
  // Without the rollback this access would park on R1 forever.
  EXPECT_TRUE(engine.ValueOrDie()
                  ->Run({sim::WorkloadOp{sim::WorkloadOp::Kind::kAccess, 1}})
                  .ok());
  EXPECT_TRUE(engine.ValueOrDie()->Flush().ok());
  EXPECT_TRUE(engine.ValueOrDie()->wal().CheckConsistency().ok());
}

TEST(TxnEngineRunTest, ErrorInsideExplicitTransactionRollsItBack) {
  Result<std::unique_ptr<TxnEngine>> engine = TxnEngine::Create(TinyOptions(6));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Status failed = engine.ValueOrDie()->Run(
      {sim::WorkloadOp{sim::WorkloadOp::Kind::kBegin, 0},
       sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 0}});
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ValueOrDie()->locks().held_count(1), 0u);
  EXPECT_TRUE(engine.ValueOrDie()
                  ->Run({sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 11}})
                  .ok());
  EXPECT_TRUE(engine.ValueOrDie()->Flush().ok());
  EXPECT_TRUE(engine.ValueOrDie()->wal().CheckConsistency().ok());
}

TEST(TxnEngineRunTest, OracleSweepFlushesThePendingGroupFirst) {
  TxnEngine::Options options = TinyOptions(7);
  options.config.group_commit_size = 3;
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& engine = *created.ValueOrDie();
  const TxnId pending = engine.Begin();
  ASSERT_TRUE(engine.Queue(pending, SeededUpdate(41)).ok());
  ASSERT_TRUE(engine.Commit(pending).ok());
  ASSERT_EQ(engine.manager().pending_commits(), 1u);

  ASSERT_TRUE(engine.CompareAllAgainstOracle().ok());
  // The swept state must already contain the pending transaction: its
  // commit point precedes every record of the sweep's own transaction.
  const std::vector<storage::WalRecord> wal = engine.WalSnapshot();
  uint64_t pending_commit_lsn = 0;
  for (const storage::WalRecord& record : wal) {
    if (record.kind == storage::WalRecord::Kind::kCommit &&
        record.txn == pending) {
      pending_commit_lsn = record.lsn;
    }
  }
  ASSERT_NE(pending_commit_lsn, 0u);
  const TxnId sweep = pending + 1;
  ASSERT_EQ(CountRecords(wal, storage::WalRecord::Kind::kCommit, sweep), 1u);
  for (const storage::WalRecord& record : wal) {
    if (record.txn == sweep) {
      EXPECT_GT(record.lsn, pending_commit_lsn)
          << storage::WalRecordKindName(record.kind);
    }
  }
}

TEST(TxnEngineRunTest, EngineWithoutProceduresIsRejected) {
  TxnEngine::Options options = TinyOptions(8);
  options.params.N1 = 0;
  options.params.N2 = 0;
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace procsim::txn
