#ifndef PROCSIM_TXN_TXN_MANAGER_H_
#define PROCSIM_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sim/workload.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "util/cost_meter.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::txn {

/// \brief Transaction table + R1 lock + group-commit pipeline over one
/// WriteAheadLog.
///
/// Protocol (deferred-apply redo logging):
///  - Begin() assigns the next TxnId and logs kBegin.
///  - LockShared() takes R1 shared for a procedure access; QueueOp() takes
///    R1 exclusively and buffers the transaction's mutation op — nothing
///    touches the database until commit, so an abort is a pure forget.
///    Both reject a transaction that is not active, or already committing,
///    before they touch the lock, so a finished transaction can never
///    re-pin R1.
///  - Commit() moves the transaction onto the group-commit queue and
///    releases its lock (serialization order is now fixed as the queue
///    order — the standard group-commit early-release trade).  When the
///    queue reaches group_commit_size the group flushes.
///  - A flush walks the queue in order: for each transaction it appends
///    the kMutation redo records, runs the caller's apply hook (heap apply
///    + strategy notification; mirrored invalidation records land here,
///    tagged with the transaction), appends kCommit — the commit point — then
///    forces the log once for the whole group.  One force amortized over
///    the batch is the paper's C_inval ≈ 0 argument applied to commits.
///  - Abort() logs kAbort, drops the buffer and releases the lock.
///  - A mid-group apply failure retires the transactions that already
///    reached their commit point (forced, counted, never re-applied),
///    terminates the failing transaction with kAbort, and *poisons* the
///    manager: every later flush fails FailedPrecondition.  The database
///    may hold a partial apply at that point — recovery from the WAL (which
///    never saw the failing transaction's commit point) is the remedy, and
///    poisoning is what keeps a retried Flush from applying the retired
///    prefix a second time.
///
/// Commit latency is measured on the simulated clock (CostMeter::total_ms):
/// enqueue-to-force, so batch-mates that wait for the group to fill pay
/// visible latency — the txn.commit.latency_ms histogram fig21 plots.
///
/// Thread safety: one kTxnManager latch guards the table and queue; the
/// apply hook runs under it (it acquires only higher-ranked latches — the
/// database latch, strategy internals, the WAL).  A lock request never
/// parks under that latch: a parked waiter would stall the group flush of
/// the very transaction it waits for.  One transaction's calls come from
/// one thread at a time.
class TxnManager {
 public:
  struct Options {
    /// Transactions per group flush; 1 = commit immediately (the serving
    /// engine's read-your-writes default).
    std::size_t group_commit_size = 1;
  };

  /// Apply hook: applies `ops` to the database and notifies strategies.
  /// Runs during a group flush, after the transaction's kMutation records
  /// are logged and before its kCommit record.
  using ApplyFn =
      std::function<Status(TxnId txn, const std::vector<sim::WorkloadOp>& ops)>;

  /// `wal` and `meter` must outlive the manager; `meter` may be null
  /// (latency histogram then records zeros).
  TxnManager(storage::WriteAheadLog* wal, CostMeter* meter, Options options);
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  TxnId Begin();

  /// Takes R1 shared for one of `txn`'s procedure accesses, blocking until
  /// granted.
  Status LockShared(TxnId txn);

  /// Takes R1 exclusively for `txn`, then buffers one mutation op.  Returns
  /// Aborted when `txn` holds R1 shared and another S holder is already
  /// parked upgrading — the caller must Abort `txn`.
  Status QueueOp(TxnId txn, const sim::WorkloadOp& op);

  /// Enqueues `txn` for group commit with `apply` as its flush-time hook
  /// (may be null for read-only transactions) and releases its lock.
  /// Flushes the group if it is now full.
  Status Commit(TxnId txn, ApplyFn apply);

  /// Rolls `txn` back: logs kAbort, drops its buffered ops, releases its
  /// lock.
  Status Abort(TxnId txn);

  /// Forces the pending (partial) group, if any.
  Status Flush();

  /// Fast-forwards the TxnId allocator past `max_seen`: recovery calls
  /// this with the highest id in the surviving log so re-grown history
  /// never reuses an id (the WAL's one-commit-per-txn invariant).
  void AdvancePastTxn(TxnId max_seen);

  std::size_t group_commit_size() const { return options_.group_commit_size; }
  std::size_t pending_commits() const;

  /// The R1 mode `txn` holds, or nullopt when it holds nothing.
  std::optional<LockMode> HeldLock(TxnId txn) const { return lock_.Held(txn); }

  /// True once a mid-group apply failure has wedged the manager (see the
  /// class comment); every subsequent flush fails FailedPrecondition.
  bool poisoned() const;
  std::uint64_t commits() const {
    return commit_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Txn {
    std::vector<sim::WorkloadOp> ops;
    ApplyFn apply;
    double enqueue_ms = 0;
    bool committing = false;
  };

  /// InvalidArgument unless `txn` is active and not yet committing.
  Status CheckOpenLocked(TxnId txn) const REQUIRES(latch_);

  /// Checks `txn` is open under the latch, then — latch dropped — takes
  /// R1 in `mode`.
  Status Lock(TxnId txn, LockMode mode) EXCLUDES(latch_);

  Status FlushLocked() REQUIRES(latch_);

  /// Retires the first `count` queued transactions as committed: observes
  /// their latency, drops them from the table and bumps the commit
  /// counters.  Their kCommit records must already be logged and forced.
  void RetireCommittedLocked(std::size_t count) REQUIRES(latch_);

  storage::WriteAheadLog* const wal_;
  CostMeter* const meter_;
  const Options options_;
  std::atomic<TxnId> next_txn_{1};
  std::atomic<std::uint64_t> commit_count_{0};
  // procsim-lint: allow(unguarded(lock_)) because the LockManager serializes itself on its own kTxnLock latch
  LockManager lock_;
  mutable util::RankedMutex latch_{util::LatchRank::kTxnManager, "TxnManager"};
  std::map<TxnId, Txn> active_ GUARDED_BY(latch_);
  std::vector<TxnId> queue_ GUARDED_BY(latch_);
  bool poisoned_ GUARDED_BY(latch_) = false;
};

}  // namespace procsim::txn

#endif  // PROCSIM_TXN_TXN_MANAGER_H_
