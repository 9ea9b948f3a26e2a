#ifndef PROCSIM_TXN_LOCK_MANAGER_H_
#define PROCSIM_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <optional>

#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::txn {

/// Transaction identifier.  Ids are assigned monotonically by the
/// TxnManager, so a smaller id means an older transaction — the age order
/// the grant-fairness rule arbitrates by.  Id 0 is reserved ("no
/// transaction").
using TxnId = std::uint64_t;

enum class LockMode : std::uint8_t { kShared, kExclusive };

/// \brief The S/X lock on R1, the one relation transactions mutate.
///
/// The paper's update model writes R1 only, so every engine transaction
/// locks the same single granule: S to access a procedure, X to queue a
/// mutation (the maintenance fan-out is whole-engine work, like a
/// table-level X lock).  S is compatible with S; everything else
/// conflicts.  Re-acquiring a held mode (or S under X) is a no-op, and a
/// sole S holder upgrades to X in place.  Locks are held until Release —
/// the TxnManager releases at commit-enqueue and at abort.
///
/// Grant fairness: a fresh acquisition is denied while an *older* waiter
/// is parked in a conflicting mode, so a steady stream of young readers
/// cannot starve an older writer.  Upgrades by a current holder are exempt
/// (the parked waiter must outwait the hold anyway, and deferring the
/// upgrade to it would deadlock both).
///
/// Deadlock: with one granule, a wait can only cycle among S holders that
/// all park asking for X.  So an S holder asking for X while another
/// holder is already parked upgrading gets Aborted instead of parking (and
/// counts in txn.lock.deadlocks); its caller must abort the transaction,
/// whose Release then lets the parked upgrader through.
///
/// Thread safety: one kTxnLock latch guards the holder and waiter tables;
/// waiters park on a condition variable, releasing the latch, so a blocked
/// *transaction* never blocks a *latch* path.
class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades to) `mode` for `txn`, blocking until granted.
  /// Returns Aborted when the request is an upgrade that would deadlock
  /// against an already parked upgrader; `txn` keeps its S lock until
  /// Release.
  Status Acquire(TxnId txn, LockMode mode);

  /// Drops `txn`'s lock, if any, and wakes every waiter.
  void Release(TxnId txn);

  /// The mode `txn` holds, or nullopt when it holds nothing.
  std::optional<LockMode> Held(TxnId txn) const;

 private:
  /// True iff no other holder conflicts with `txn` holding `mode`.
  bool Compatible(TxnId txn, LockMode mode) const REQUIRES(latch_);

  /// True iff granting `mode` to `txn` would overtake an older parked
  /// waiter whose requested mode conflicts (the fairness rule).
  bool OlderWaiterConflicts(TxnId txn, LockMode mode) const REQUIRES(latch_);

  /// True iff a holder other than `txn` is parked asking for X.
  bool OtherUpgraderParked(TxnId txn) const REQUIRES(latch_);

  mutable util::RankedMutex latch_{util::LatchRank::kTxnLock, "LockManager"};
  // procsim-lint: allow(unguarded(cv_)) because std::condition_variable_any is internally synchronized; every wait parks under latch_
  std::condition_variable_any cv_;
  std::map<TxnId, LockMode> holders_ GUARDED_BY(latch_);
  /// Parked requests, TxnId-ordered so the fairness scan stops at the
  /// first younger waiter.
  std::map<TxnId, LockMode> waiting_ GUARDED_BY(latch_);
};

}  // namespace procsim::txn

#endif  // PROCSIM_TXN_LOCK_MANAGER_H_
