// TxnManager group-commit semantics around failure: a mid-group apply
// failure must retire the already-committed prefix exactly once (no double
// apply, no duplicate WAL records), terminate the failing transaction, and
// poison the manager — plus the engine's R1 lock lifecycle: a failed op
// never leaks an open transaction holding the lock, a finished transaction
// cannot re-take it, and two contending S→X upgraders abort one instead of
// parking forever.
#include "txn/txn_manager.h"

#include <barrier>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/workload.h"
#include "storage/wal.h"
#include "txn/engine.h"
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
  TxnManager manager(&wal, nullptr, TxnManager::Options{2});
  std::map<TxnId, int> applies;
  const auto apply_ok = [&](TxnId txn,
                            const std::vector<sim::WorkloadOp>&) -> Status {
    ++applies[txn];
    return Status::OK();
  };
  const TxnId a = manager.Begin();
  const TxnId b = manager.Begin();
  // QueueOp takes R1 exclusively and commit-enqueue releases it, so each
  // transaction queues in turn.
  ASSERT_TRUE(manager.QueueOp(a, SeededUpdate(7)).ok());
  ASSERT_TRUE(manager.Commit(a, apply_ok).ok());
  ASSERT_TRUE(manager.QueueOp(b, SeededUpdate(8)).ok());
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
  TxnManager manager(&wal, nullptr, TxnManager::Options{3});
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
  ASSERT_TRUE(manager.Commit(a, apply_ok).ok());
  ASSERT_TRUE(manager.QueueOp(b, SeededUpdate(8)).ok());
  ASSERT_TRUE(manager.Commit(b, apply_fail).ok());
  ASSERT_TRUE(manager.QueueOp(c, SeededUpdate(9)).ok());
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
  // An unseeded mutation is rejected by QueueOp inside the implicit
  // transaction; the rollback must leave nothing open or held.
  const Status failed = engine.ValueOrDie()->Run(
      {sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 0}});
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ValueOrDie()->manager().HeldLock(1), std::nullopt);
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
  // The access takes R1 shared; the failed update must not leave it held.
  const Status failed = engine.ValueOrDie()->Run(
      {sim::WorkloadOp{sim::WorkloadOp::Kind::kBegin, 0},
       sim::WorkloadOp{sim::WorkloadOp::Kind::kAccess, 1},
       sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 0}});
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ValueOrDie()->manager().HeldLock(1), std::nullopt);
  // Without the rollback this writer would park on R1 forever.
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

TEST(TxnEngineRunTest, FinishedTransactionCannotRetakeTheLock) {
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(TinyOptions(9));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& engine = *created.ValueOrDie();
  const TxnId txn = engine.Begin();
  ASSERT_TRUE(engine.Access(txn, 1).ok());
  ASSERT_TRUE(engine.Commit(txn).ok());
  // Both calls must be refused before they touch R1: a committed
  // transaction has no Abort left to release a lock it re-took.
  ASSERT_EQ(engine.Access(txn, 1).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(engine.Queue(txn, SeededUpdate(10)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      engine.Run({sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, 11}}).ok());
  EXPECT_EQ(engine.manager().HeldLock(txn), std::nullopt);
}

TEST(TxnEngineRunTest, ContendedUpgradersAbortOneAndCommitTheOther) {
  // Two transactions each Access (R1 shared), then Queue (S→X upgrade).
  // The barrier makes both hold S before either upgrades: the first
  // upgrader parks, the second is Aborted, and its Abort lets the first
  // through to commit.
  Result<std::unique_ptr<TxnEngine>> created =
      TxnEngine::Create(TinyOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& engine = *created.ValueOrDie();
  std::barrier both_hold_shared(2);
  Status outcome[2];
  const auto session = [&](int i) {
    const TxnId txn = engine.Begin();
    Status status = engine.Access(txn, static_cast<uint64_t>(i)).status();
    both_hold_shared.arrive_and_wait();
    if (status.ok()) status = engine.Queue(txn, SeededUpdate(20 + i));
    outcome[i] = status.ok() ? engine.Commit(txn) : status;
    if (!status.ok()) {
      EXPECT_TRUE(engine.Abort(txn).ok());
    }
  };
  std::thread first(session, 0);
  std::thread second(session, 1);
  first.join();
  second.join();
  const int aborted = (outcome[0].code() == StatusCode::kAborted ? 1 : 0) +
                      (outcome[1].code() == StatusCode::kAborted ? 1 : 0);
  EXPECT_EQ(aborted, 1) << outcome[0].ToString() << " / "
                        << outcome[1].ToString();
  EXPECT_TRUE(outcome[0].ok() || outcome[1].ok())
      << outcome[0].ToString() << " / " << outcome[1].ToString();
  EXPECT_EQ(engine.manager().commits(), 1u);
  EXPECT_TRUE(engine.CompareAllAgainstOracle().ok());
  EXPECT_TRUE(engine.wal().CheckConsistency().ok());
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
