#ifndef PROCSIM_TXN_ENGINE_H_
#define PROCSIM_TXN_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cost/params.h"
#include "proc/engine_config.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "storage/wal.h"
#include "txn/txn_manager.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::txn {

/// \brief The transactional engine: one Database + all six strategies
/// behind Begin/Queue/Access/Commit/Abort, with a WriteAheadLog and a
/// group-committing TxnManager that also owns the R1 S/X lock — and a
/// recovery path that rebuilds the whole stack from the log.
///
/// Access() runs under R1 shared, Queue() takes R1 exclusively; the
/// TxnManager acquires both for the engine and releases at commit-enqueue
/// or abort.  A transaction that accesses and then queues upgrades S to X
/// and may get Aborted (see LockManager); the caller then aborts it.
///
/// Mutations are deferred-apply: Queue() buffers ops (under an X lock on
/// R1); the group flush applies them in commit order, so the WAL's record
/// order IS the serialization order, and a crash prefix always corresponds
/// to a prefix of committed transactions.  That single total order is what
/// makes one recovery pass sufficient for heaps, indexes, invalidation
/// bitmaps, i-locks and cache-budget live flags alike (DESIGN.md §12).
///
/// Recovery = genesis + redo: the durable base image is the seed (the
/// database build is deterministic), so Recover() rebuilds the base,
/// prepares fresh strategies (all caches valid) and replays the committed
/// transactions' mutation records *organically* — through the same
/// ApplyMutationOp + strategy-notification path the live engine uses.
/// That one pass reconstructs the heaps/indexes AND re-derives every
/// cache's validity, i-locks and budget accounting.  The logged
/// invalidations are then cross-checked against the organic outcome, both
/// ways: any procedure the (committed) log marks invalid must be invalid in
/// the recovered engine, and any procedure the replay first invalidated
/// after the latest checkpoint must be named by a committed invalidation
/// record.  Either violation is a lost invalidation, the exact bug class
/// the crash harness exists to catch.
class TxnEngine {
 public:
  struct Options {
    cost::Params params;
    cost::ProcModel model = cost::ProcModel::kModel1;
    uint64_t seed = 42;
    /// shards + cache budget + group_commit_size + wal_force_cost_ms.
    proc::EngineConfig config;
    sim::WorkloadMix mix;
  };

  /// Fault injection for the crash-fuzz harness: plantable recovery bugs.
  struct RecoveryInjection {
    /// Replay applies heap mutations but skips the CacheInvalidate
    /// strategy's write notification — a lost invalidation.  Both recovery
    /// cross-checks (the log-versus-replay validity check and the oracle
    /// digest sweep) must catch it.
    bool drop_invalidation_replay = false;
  };

  struct RecoveryReport {
    std::size_t surviving_records = 0;
    std::size_t committed_txns = 0;
    std::size_t replayed_mutations = 0;
    /// Records of uncommitted/aborted transactions skipped by replay.
    std::size_t discarded_records = 0;
    /// The validity bitmap restored purely from the log (checkpoint minus
    /// committed invalidations after it) — the §3 WAL-recovery answer,
    /// checked against the organically replayed bitmap.
    std::vector<bool> log_restored_valid;
  };

  static Result<std::unique_ptr<TxnEngine>> Create(const Options& options);

  /// Rebuilds an engine from the seed base image plus `surviving` (a crash
  /// prefix of a WAL snapshot).  The recovered engine's WAL contains the
  /// surviving records verbatim, so it can itself crash and recover — the
  /// idempotence proof.  `injection` plants recovery bugs for the harness;
  /// `report`, when non-null, receives replay statistics.
  static Result<std::unique_ptr<TxnEngine>> Recover(
      const Options& options, std::vector<storage::WalRecord> surviving,
      const RecoveryInjection& injection, RecoveryReport* report = nullptr);

  TxnId Begin();

  /// Buffers one mutation op for `txn`, first taking R1 exclusively.
  /// Returns Aborted when `txn`'s S→X upgrade would deadlock against
  /// another parked upgrader; the caller must Abort `txn`.
  Status Queue(TxnId txn, const sim::WorkloadOp& op);

  /// Serves procedure `access_id % procedure_count` under an R1 shared
  /// lock: all six strategies answer, the answers must agree byte-for-byte
  /// and the canonical digest is returned.
  Result<std::string> Access(TxnId txn, uint64_t access_id);

  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  /// Forces the pending partial commit group, if any.
  Status Flush();

  /// Flushes, then writes the CacheInvalidate validity bitmap into a
  /// kCheckpoint WAL record; recovery restores the bitmap from the latest
  /// surviving checkpoint plus the committed invalidations after it.
  /// (The WAL itself is never truncated by the engine: the durable base
  /// image is the seed, so every committed mutation record is needed for
  /// redo.)  Quiescent-only.
  Status TakeCheckpoint();

  /// One step Run reports to its observer: an access served, or a
  /// transaction committed.
  struct RunEvent {
    /// After an access: the access op; null after a commit.
    const sim::WorkloadOp* access = nullptr;
    /// After an access: the canonical result bytes all six strategies
    /// agreed on.
    std::string digest;
    /// After a commit: the mutation ops the transaction queued, in order
    /// (empty for a read-only one).
    std::span<const sim::WorkloadOp> committed;
  };
  /// Run's per-op callback; a non-OK return stops the run.  After a
  /// commit it may drive the engine itself: Run then holds no transaction.
  using RunObserver = std::function<Status(const RunEvent& event)>;

  /// Executes a marker-aware op stream single-threadedly: kBegin/kCommit/
  /// kAbort bracket explicit transactions, bare ops auto-commit, accesses
  /// read (inside or outside transactions).  An unterminated transaction at
  /// stream end is rolled back.  The trailing commit group is NOT flushed —
  /// call Flush() for a quiescent end state.  `observe`, when set, is
  /// called after each access and after each commit.
  Status Run(const std::vector<sim::WorkloadOp>& ops,
             const RunObserver& observe = nullptr);

  /// From-scratch oracle digest of every procedure's current value
  /// (un-metered), procedure-tagged and length-prefixed — byte-identical
  /// iff the database states are.  Quiescent-only.
  Result<std::string> StateDigest() NO_THREAD_SAFETY_ANALYSIS;

  /// Quiescent sweep: flushes the pending commit group, then every
  /// strategy's answer for every procedure must be byte-identical to the
  /// from-scratch oracle.  (Structure validators live a layer up, in
  /// audit::ValidateEngine; the oracle, the crash harness and the session
  /// pool run both.)
  Status CompareAllAgainstOracle();

  std::vector<storage::WalRecord> WalSnapshot() const {
    return wal_->Snapshot();
  }
  const storage::WriteAheadLog& wal() const { return *wal_; }
  TxnManager& manager() { return *txns_; }
  const Options& options() const { return options_; }
  std::size_t procedure_count() const NO_THREAD_SAFETY_ANALYSIS {
    return db_->procedures.size();
  }

  /// Quiescent-only escape hatches (setup and validation).
  sim::Database* database() NO_THREAD_SAFETY_ANALYSIS { return db_.get(); }
  sim::StrategySet& strategies() NO_THREAD_SAFETY_ANALYSIS {
    return strategies_;
  }

 private:
  TxnEngine() = default;

  /// Builds database + strategies + txn machinery (no replay, no mirror).
  static Result<std::unique_ptr<TxnEngine>> Build(const Options& options);

  /// The six-way loop Access and CompareAllAgainstOracle share: serves
  /// procedure `id` from every strategy, in strategies_.all order.  Each
  /// answer's canonical bytes must equal `expected`, or the first
  /// strategy's when `expected` is null; a divergence is Internal, naming
  /// the strategy and `against`.  With `expected` null, returns the agreed
  /// bytes; otherwise the caller holds them and an empty string returns.
  /// (An overload of Access because it is Strategy::Access fanned out:
  /// procsim_lint's latch-rank pass matches calls by name and treats a
  /// same-named callee as that dispatch.)
  Result<std::string> Access(proc::ProcId id, const std::string* expected,
                             const char* against) REQUIRES_SHARED(db_latch_);

  /// Installs the InvalidationLog→WAL mirror (disabled during replay so
  /// recovery does not re-log what it is reconstructing).
  void InstallMirror();

  /// Group-flush apply hook: applies `ops` and notifies strategies, under
  /// the db latch, with applying_txn_ = `txn`.  `skip_invalidation` is the
  /// planted recovery bug (only ever set by Recover's replay).
  Status ApplyCommitted(TxnId txn, const std::vector<sim::WorkloadOp>& ops,
                        bool skip_invalidation);

  // procsim-lint: allow(unguarded(options_)) because options are written once at Build and read-only afterwards
  Options options_;
  mutable util::RankedSharedMutex db_latch_{util::LatchRank::kDatabase,
                                            "TxnEngine::db"};
  std::unique_ptr<util::LatchStripes> slot_stripes_;
  std::unique_ptr<sim::Database> db_ GUARDED_BY(db_latch_);
  sim::StrategySet strategies_ GUARDED_BY(db_latch_);
  /// The transaction ApplyCommitted is applying: the mirror tags each
  /// invalidation record with it.
  TxnId applying_txn_ GUARDED_BY(db_latch_) = 0;
  // procsim-lint: allow(unguarded(wal_)) because the pointer is written once at Build; the WriteAheadLog serializes itself on its own kWal latch
  std::unique_ptr<storage::WriteAheadLog> wal_;
  // procsim-lint: allow(unguarded(txns_)) because the pointer is written once at Build; the TxnManager serializes itself on its own kTxnManager latch
  std::unique_ptr<TxnManager> txns_;
};

/// From-scratch, un-metered oracle digest of every procedure's current
/// value over `db`: procedure-tagged, length-prefixed, byte-identical iff
/// the database states are.  TxnEngine::StateDigest() is this applied to
/// the engine's own database; the crash harness applies it to its
/// independently advanced reference database.
std::string OracleStateDigest(sim::Database* db);

}  // namespace procsim::txn

#endif  // PROCSIM_TXN_ENGINE_H_
