// Recovery idempotence: recovering the same surviving prefix twice must
// yield byte-identical engines, and a recovered engine can itself crash and
// recover (its WAL carries the surviving records verbatim) with no drift —
// the fixed-point property that makes crash-during-recovery harmless in
// this redo-only design.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/crash.h"
#include "proc/cache_invalidate.h"
#include "sim/workload.h"
#include "storage/wal.h"
#include "txn/engine.h"

namespace procsim::txn {
namespace {

TxnEngine::Options SmallOptions(uint64_t seed) {
  TxnEngine::Options options;
  options.params.N = 80;
  options.params.f_R2 = 0.1;
  options.params.f_R3 = 0.1;
  options.params.l = 2;
  options.params.N1 = 3;
  options.params.N2 = 3;
  options.params.SF = 0.5;
  options.params.f = 0.1;
  options.params.f2 = 0.3;
  options.seed = seed;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  return options;
}

/// A transactional op stream with commits, aborts and interleaved reads.
std::vector<sim::WorkloadOp> SomeOps(const TxnEngine::Options& options,
                                     std::size_t count) {
  sim::Workload workload(options.mix,
                         static_cast<std::size_t>(options.params.N1 +
                                                  options.params.N2),
                         options.seed + 1000);
  audit::TxnWrapOptions wrap;
  wrap.seed = options.seed + 2000;
  wrap.abort_probability = 0.2;
  return audit::WrapInTransactions(workload.Take(count), wrap);
}

void ExpectSameRecords(const std::vector<storage::WalRecord>& a,
                       const std::vector<storage::WalRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lsn, b[i].lsn) << "record " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "record " << i;
    EXPECT_EQ(a[i].txn, b[i].txn) << "record " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "record " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "record " << i;
    EXPECT_EQ(a[i].bitmap, b[i].bitmap) << "record " << i;
  }
}

TEST(RecoveryIdempotenceTest, TwoRecoveriesFromOnePrefixAreByteIdentical) {
  const TxnEngine::Options options = SmallOptions(11);
  Result<std::unique_ptr<TxnEngine>> live = TxnEngine::Create(options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(live.ValueOrDie()->Run(SomeOps(options, 24)).ok());
  ASSERT_TRUE(live.ValueOrDie()->Flush().ok());
  const std::vector<storage::WalRecord> wal =
      live.ValueOrDie()->WalSnapshot();
  ASSERT_GT(wal.size(), 4u);

  // Cut mid-log so the prefix straddles committed and uncommitted work.
  const std::vector<storage::WalRecord> prefix(wal.begin(),
                                               wal.begin() + wal.size() / 2);
  TxnEngine::RecoveryReport first_report, second_report;
  Result<std::unique_ptr<TxnEngine>> first =
      TxnEngine::Recover(options, prefix, {}, &first_report);
  Result<std::unique_ptr<TxnEngine>> second =
      TxnEngine::Recover(options, prefix, {}, &second_report);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  Result<std::string> first_digest = first.ValueOrDie()->StateDigest();
  Result<std::string> second_digest = second.ValueOrDie()->StateDigest();
  ASSERT_TRUE(first_digest.ok());
  ASSERT_TRUE(second_digest.ok());
  EXPECT_EQ(first_digest.ValueOrDie(), second_digest.ValueOrDie());
  ExpectSameRecords(first.ValueOrDie()->WalSnapshot(),
                    second.ValueOrDie()->WalSnapshot());
  EXPECT_EQ(first_report.committed_txns, second_report.committed_txns);
  EXPECT_EQ(first_report.replayed_mutations,
            second_report.replayed_mutations);
  EXPECT_EQ(first_report.log_restored_valid,
            second_report.log_restored_valid);
  EXPECT_EQ(first_report.surviving_records, prefix.size());
}

TEST(RecoveryIdempotenceTest, RecoveringTheRecoveredEngineIsAFixedPoint) {
  const TxnEngine::Options options = SmallOptions(23);
  Result<std::unique_ptr<TxnEngine>> live = TxnEngine::Create(options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(live.ValueOrDie()->Run(SomeOps(options, 20)).ok());
  ASSERT_TRUE(live.ValueOrDie()->Flush().ok());
  const std::vector<storage::WalRecord> wal =
      live.ValueOrDie()->WalSnapshot();
  const std::vector<storage::WalRecord> prefix(
      wal.begin(), wal.begin() + (2 * wal.size()) / 3);

  Result<std::unique_ptr<TxnEngine>> once =
      TxnEngine::Recover(options, prefix, {});
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  // The recovered engine's own WAL is the surviving prefix verbatim…
  ExpectSameRecords(once.ValueOrDie()->WalSnapshot(), prefix);
  // …so crashing it again (full-log "crash") and recovering reproduces the
  // same state, digests and log.
  Result<std::unique_ptr<TxnEngine>> twice =
      TxnEngine::Recover(options, once.ValueOrDie()->WalSnapshot(), {});
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  Result<std::string> once_digest = once.ValueOrDie()->StateDigest();
  Result<std::string> twice_digest = twice.ValueOrDie()->StateDigest();
  ASSERT_TRUE(once_digest.ok());
  ASSERT_TRUE(twice_digest.ok());
  EXPECT_EQ(once_digest.ValueOrDie(), twice_digest.ValueOrDie());
  ExpectSameRecords(once.ValueOrDie()->WalSnapshot(),
                    twice.ValueOrDie()->WalSnapshot());
  EXPECT_TRUE(twice.ValueOrDie()->CompareAllAgainstOracle().ok());
}

TEST(RecoveryIdempotenceTest, RecoveredEngineNeverReusesLoggedTxnIds) {
  const TxnEngine::Options options = SmallOptions(31);
  Result<std::unique_ptr<TxnEngine>> live = TxnEngine::Create(options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(live.ValueOrDie()->Run(SomeOps(options, 16)).ok());
  ASSERT_TRUE(live.ValueOrDie()->Flush().ok());
  const std::vector<storage::WalRecord> wal =
      live.ValueOrDie()->WalSnapshot();
  TxnId max_logged = 0;
  for (const storage::WalRecord& record : wal) {
    if (record.txn > max_logged) max_logged = record.txn;
  }
  ASSERT_GT(max_logged, 0u);

  Result<std::unique_ptr<TxnEngine>> recovered =
      TxnEngine::Recover(options, wal, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // New history must not collide with logged ids, or the WAL's
  // one-termination-per-transaction invariant breaks on the next commit.
  const TxnId fresh = recovered.ValueOrDie()->Begin();
  EXPECT_GT(fresh, max_logged);
  ASSERT_TRUE(recovered.ValueOrDie()->Commit(fresh).ok());
  ASSERT_TRUE(recovered.ValueOrDie()->Flush().ok());
  EXPECT_TRUE(recovered.ValueOrDie()->wal().CheckConsistency().ok());
}

TEST(RecoveryIdempotenceTest, CheckpointPlusLogTailRestoresValidity) {
  // The §3 recovery story at the engine: a kCheckpoint record carries the
  // validity bitmap, a later committed update invalidates some procedure p,
  // and recovery from the full WAL must restore p as invalid — both from the
  // log (checkpoint + committed tail) and in the replayed CacheInvalidate.
  const TxnEngine::Options options = SmallOptions(47);
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& live = *created.ValueOrDie();
  ASSERT_TRUE(live.Run(SomeOps(options, 12)).ok());
  // Refresh every cache so the checkpoint follows validity records but
  // captures an all-valid bitmap.
  ASSERT_TRUE(live.CompareAllAgainstOracle().ok());
  const std::size_t proc_count = live.procedure_count();
  const std::vector<bool> all_valid(proc_count, true);
  ASSERT_EQ(live.strategies().cache_invalidate->ValidityBitmap(), all_valid);
  ASSERT_TRUE(live.TakeCheckpoint().ok());

  // Commit updates until one invalidates a procedure.
  std::vector<bool> live_valid = all_valid;
  for (uint64_t seed = 1; seed <= 64 && live_valid == all_valid; ++seed) {
    ASSERT_TRUE(
        live.Run({sim::WorkloadOp{sim::WorkloadOp::Kind::kUpdate, seed}}).ok());
    ASSERT_TRUE(live.Flush().ok());
    live_valid = live.strategies().cache_invalidate->ValidityBitmap();
  }
  ASSERT_NE(live_valid, all_valid) << "no update invalidated a procedure";

  // Procedures named by a validity record after the checkpoint.
  const std::vector<storage::WalRecord> wal = live.WalSnapshot();
  std::vector<bool> touched(proc_count, false);
  bool after_checkpoint = false;
  for (const storage::WalRecord& record : wal) {
    if (record.kind == storage::WalRecord::Kind::kCheckpoint) {
      after_checkpoint = true;
    } else if (after_checkpoint &&
               (record.kind == storage::WalRecord::Kind::kInvalidate ||
                record.kind == storage::WalRecord::Kind::kValidate)) {
      touched[record.a] = true;
    }
  }
  ASSERT_TRUE(after_checkpoint);

  TxnEngine::RecoveryReport report;
  Result<std::unique_ptr<TxnEngine>> recovered =
      TxnEngine::Recover(options, wal, {}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(report.log_restored_valid.size(), proc_count);
  for (proc::ProcId id = 0; id < proc_count; ++id) {
    if (!touched[id]) {
      EXPECT_TRUE(report.log_restored_valid[id]) << "procedure " << id;
    }
    if (!live_valid[id]) {
      EXPECT_FALSE(report.log_restored_valid[id]) << "procedure " << id;
      EXPECT_FALSE(
          recovered.ValueOrDie()->strategies().cache_invalidate->IsValid(id))
          << "procedure " << id;
    }
  }
  // Every mirrored record was committed, so the log's bitmap is the live one.
  EXPECT_EQ(report.log_restored_valid, live_valid);
  EXPECT_TRUE(recovered.ValueOrDie()->CompareAllAgainstOracle().ok());
}

}  // namespace
}  // namespace procsim::txn
