#ifndef PROCSIM_PROC_CACHE_INVALIDATE_H_
#define PROCSIM_PROC_CACHE_INVALIDATE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ivm/tuple_store.h"
#include "proc/cache_budget.h"
#include "proc/ilock.h"
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
///
/// Validity is §3's bitmap, one flag per entry.  Each real invalidation is
/// handed to the invalidation hook (SetValidityMirror), which the
/// transaction layer points at its write-ahead log: "log the identifiers of
/// invalidated procedures".  Re-validations are not logged: one follows a
/// recompute whose cached bytes are not durable, so recovery leaves the
/// procedure invalid either way.
///
/// Thread safety: the flags carry no latch of their own.  The engine's
/// latches cover them: OnBatch runs under the exclusive database latch, and
/// an Access of `id` under the shared one plus `id`'s slot stripe.
class CacheInvalidateStrategy : public Strategy {
 public:
  CacheInvalidateStrategy(rel::Catalog* catalog, rel::Executor* executor,
                          CostMeter* meter, std::size_t result_tuple_bytes,
                          CacheBudget* budget, double invalidation_cost_ms);

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

  /// The §3 validity bitmap, one bit per procedure, read from the entries
  /// (what a WAL checkpoint record captures).  Valid after Prepare().
  std::vector<bool> ValidityBitmap() const;

  /// Called with the procedure id of every real invalidation, in the order
  /// ILockTable::FindBroken reports them; re-invalidating an invalid entry
  /// calls nothing.  It runs inside OnBatch and must only acquire latches
  /// ranked above kDatabase.  Install at quiesce; pass nullptr to clear.
  using InvalidationHook = std::function<void(ProcId)>;
  void SetValidityMirror(InvalidationHook hook);

 private:
  struct Entry {
    std::unique_ptr<ivm::TupleStore> cache;
    bool valid = false;
    CacheBudget::EntryId budget_id = 0;
    /// Latch-free eviction poll.
    const std::atomic<bool>* live = nullptr;
  };

  bool EntryLive(const Entry& entry) const {
    return entry.live->load(std::memory_order_acquire);
  }

  /// Recomputes procedure `id`, refreshes its cache and re-acquires locks.
  Result<std::vector<rel::Tuple>> Recompute(ProcId id);

  void HandleWrite(const std::string& relation, const rel::Tuple& tuple);

  double invalidation_cost_ms_;
  std::vector<Entry> entries_;
  InvalidationHook invalidation_hook_;
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
