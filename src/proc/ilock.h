#ifndef PROCSIM_PROC_ILOCK_H_
#define PROCSIM_PROC_ILOCK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/latch.h"
#include "proc/procedure.h"
#include "relational/tuple.h"
#include "util/shard.h"
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
/// Thread safety: the table is sharded by relation name into
/// util::kDefaultShardCount shards (util::ShardMap), each behind its own
/// kILock stripe latch.  Per-operation calls (AddIntervalLock, FindBroken)
/// touch exactly one shard; whole-table sweeps (ClearLocks, lock_count,
/// ForEachLock) latch shards one at a time and never hold two, so stripe
/// latches cannot deadlock against each other.
class ILockTable {
 public:
  ILockTable();
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

  /// Procedures whose lock on `relation` is broken by writing `tuple`
  /// (deduplicated, unordered).
  std::vector<ProcId> FindBroken(const std::string& relation,
                                 const rel::Tuple& tuple) const;

  std::size_t lock_count() const;

  /// How many shards the table is partitioned into.
  std::size_t shard_count() const { return map_.size(); }

  /// Locks currently held in shard `index` (bounds-checked; aborts on an
  /// out-of-range index).
  std::size_t shard_lock_count(std::size_t index) const;

  /// Calls `fn(relation, owner, column, lo, hi)` for every lock; iteration
  /// order is unspecified.  Used by audit::ValidateILockTable.  The
  /// callback runs with one stripe latch held — it must not call back into
  /// this table.
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

  struct Shard {
    util::RankedMutex latch{util::LatchRank::kILock,
                                  "ILockTable::shard"};
    std::unordered_map<std::string, std::vector<Lock>> locks_by_relation
        GUARDED_BY(latch);
  };

  static std::vector<std::unique_ptr<Shard>> MakeShards(std::size_t count);

  Shard& ShardFor(const std::string& relation) const {
    return *shards_[map_.ForName(relation)];
  }

  const util::ShardMap map_;
  const std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_ILOCK_H_
