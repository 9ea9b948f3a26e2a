#ifndef PROCSIM_PROC_CACHE_INVALIDATE_H_
#define PROCSIM_PROC_CACHE_INVALIDATE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ivm/tuple_store.h"
#include "proc/cache_budget.h"
#include "proc/ilock.h"
#include "proc/invalidation_log.h"
#include "proc/strategy.h"

namespace procsim::proc {

/// \brief Cache and Invalidate (§2, §4.2): the last value returned by each
/// procedure is cached; rule indexing (i-locks) detects updates that may
/// have changed it and marks the cache invalid.
///
/// An access to a valid cache just reads the stored pages (T2); an access
/// to an invalid cache recomputes the value, refreshes the cache
/// (read-modify-write, T1) and re-acquires i-locks on everything the
/// recomputation read.  Recording an invalidation costs
/// `invalidation_cost_ms` (the paper's C_inval: 2*C2 = 60 ms for the naive
/// flag-on-first-page scheme, ~0 for battery-backed memory or logged
/// invalidation records).
///
/// I-locks are set on index intervals, not on full predicates, so an update
/// inside the interval invalidates the cache even when a residual term
/// (e.g. the paper's C_f2 on the joined relation) would have rejected it —
/// the paper's *false invalidations*.
class CacheInvalidateStrategy : public Strategy {
 public:
  CacheInvalidateStrategy(rel::Catalog* catalog, rel::Executor* executor,
                          CostMeter* meter, std::size_t result_tuple_bytes,
                          double invalidation_cost_ms,
                          EngineConfig config = {},
                          CacheBudget* budget = nullptr);

  std::string name() const override { return "CacheInvalidate"; }

  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;

  /// Whether procedure `id`'s cached value is currently valid.
  bool IsValid(ProcId id) const;

  /// Number of invalidation events recorded so far (includes false
  /// invalidations; re-invalidating an already-invalid entry not counted).
  std::size_t invalidation_count() const {
    return invalidation_count_.load(std::memory_order_relaxed);
  }

  /// Accesses served so far, and how many found the cache invalid — the
  /// empirical counterpart of the paper's IP formula (§4.2).
  std::size_t access_count() const {
    return access_count_.load(std::memory_order_relaxed);
  }
  std::size_t invalid_access_count() const {
    return invalid_access_count_.load(std::memory_order_relaxed);
  }

  /// Accesses that found a VALID entry evicted by the cache budget and had
  /// to recompute (the AR-like degradation under memory pressure).
  std::size_t eviction_reload_count() const {
    return eviction_reload_count_.load(std::memory_order_relaxed);
  }

  const ILockTable& lock_table() const { return locks_; }

  /// Copy of the §3 validity bitmap (one bit per procedure).  Valid after
  /// Prepare().
  std::vector<bool> ValidityBitmap() const;

  /// Installs the hook that logs every invalidation
  /// (InvalidationLog::SetMirror); the transaction layer points it at its
  /// write-ahead log.  Valid after Prepare().
  void SetValidityMirror(InvalidationLog::MirrorFn mirror);

 private:
  struct Entry {
    std::unique_ptr<ivm::TupleStore> cache;
    CacheBudget::EntryId budget_id = 0;
    /// Latch-free eviction poll (null when no budget is attached).
    const std::atomic<bool>* live = nullptr;
  };

  bool EntryLive(const Entry& entry) const {
    return entry.live == nullptr ||
           entry.live->load(std::memory_order_acquire);
  }

  /// Recomputes procedure `id`, refreshes its cache and re-acquires locks.
  Result<std::vector<rel::Tuple>> Recompute(ProcId id);

  void HandleWrite(const std::string& relation, const rel::Tuple& tuple);

  double invalidation_cost_ms_;
  std::vector<Entry> entries_;
  std::optional<InvalidationLog> validity_;
  ILockTable locks_;
  // Statistics counters are atomics so concurrent sessions (which hold the
  // db latch in shared mode during accesses) can bump them racelessly.
  std::atomic<std::size_t> invalidation_count_{0};
  std::atomic<std::size_t> access_count_{0};
  std::atomic<std::size_t> invalid_access_count_{0};
  std::atomic<std::size_t> eviction_reload_count_{0};
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_CACHE_INVALIDATE_H_
