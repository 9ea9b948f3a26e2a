#ifndef PROCSIM_PROC_ILOCK_H_
#define PROCSIM_PROC_ILOCK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/latch.h"
#include "proc/procedure.h"
#include "relational/tuple.h"
#include "util/thread_annotations.h"

namespace procsim::proc {

/// \brief The invalidation-lock table of rule indexing [SSH86].
///
/// When a procedure's value is computed, persistent i-locks are set on all
/// data read: an interval lock on the B-tree range scanned and value locks
/// on every hash key probed.  A later write that falls inside a lock's
/// range "breaks" the lock, flagging the owning procedure.
///
/// Lock lookup is an in-memory operation (the lock table rides with the
/// index structures); the paper charges no I/O for it — only the downstream
/// screening/invalidations are charged by the callers.
///
/// Thread safety: one kILock latch guards the table.  Each relation's locks
/// are kept in the order they were set, which is the order FindBroken
/// reports their owners in.
class ILockTable {
 public:
  ILockTable() = default;
  ILockTable(const ILockTable&) = delete;
  ILockTable& operator=(const ILockTable&) = delete;

  /// Sets an interval i-lock [lo, hi] on `column` of `relation`.
  void AddIntervalLock(ProcId owner, const std::string& relation,
                       std::size_t column, int64_t lo, int64_t hi);

  /// Sets a value i-lock (degenerate interval) — one per hash-index probe.
  void AddValueLock(ProcId owner, const std::string& relation,
                    std::size_t column, int64_t key) {
    AddIntervalLock(owner, relation, column, key, key);
  }

  /// Drops every lock owned by `owner` (before re-acquiring on recompute).
  void ClearLocks(ProcId owner);

  /// Procedures whose lock on `relation` is broken by writing `tuple`,
  /// deduplicated, in the order their first broken lock was set.
  std::vector<ProcId> FindBroken(const std::string& relation,
                                 const rel::Tuple& tuple) const;

  std::size_t lock_count() const;

  /// Calls `fn(relation, owner, column, lo, hi)` for every lock.  Used by
  /// audit::ValidateILockTable.  The callback runs with the table's latch
  /// held — it must not call back into this table.
  void ForEachLock(
      const std::function<void(const std::string&, ProcId, std::size_t,
                               int64_t, int64_t)>& fn) const;

 private:
  struct Lock {
    ProcId owner;
    std::size_t column;
    int64_t lo;
    int64_t hi;
  };

  mutable util::RankedMutex latch_{util::LatchRank::kILock, "ILockTable"};
  std::map<std::string, std::vector<Lock>> locks_by_relation_
      GUARDED_BY(latch_);
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_ILOCK_H_
