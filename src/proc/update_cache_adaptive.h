#ifndef PROCSIM_PROC_UPDATE_CACHE_ADAPTIVE_H_
#define PROCSIM_PROC_UPDATE_CACHE_ADAPTIVE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "ivm/avm.h"
#include "ivm/delta.h"
#include "proc/cache_budget.h"
#include "proc/ilock.h"
#include "proc/strategy.h"

namespace procsim::proc {

/// \brief Adaptive Update Cache: per transaction, patch the stored copy
/// (Update Cache) when the delta is small relative to the object, or mark
/// it invalid and recompute on next access (Cache and Invalidate) when the
/// delta is large.
///
/// This addresses the paper's two §8 warnings at once: statically optimized
/// maintenance "may not always be optimal" when the update pattern shifts,
/// and Update Cache "degrades severely at high update probabilities".  The
/// decision rule is local and cheap: a transaction's net delta of size d
/// against a view of v tuples is patched iff d <= patch_fraction * v
/// (an invalidated view stays invalid until read).  With patch_fraction = 1
/// the strategy is almost pure AVM; with 0 it degenerates to Cache and
/// Invalidate.
///
/// A second, staleness rule handles high update rates, which the size rule
/// cannot see: after `max_unread_patches` consecutive patches with no
/// intervening read of the object, further maintenance is wasted work (the
/// paper's high-P degradation of Update Cache), so the object is
/// invalidated and recomputed on its next access — the per-object flavor of
/// Sellis's caching decision (§8).
class UpdateCacheAdaptiveStrategy : public Strategy {
 public:
  UpdateCacheAdaptiveStrategy(rel::Catalog* catalog, rel::Executor* executor,
                              CostMeter* meter,
                              std::size_t result_tuple_bytes,
                              double patch_fraction = 0.25,
                              std::size_t max_unread_patches = 4,
                              EngineConfig config = {},
                              CacheBudget* budget = nullptr);

  std::string name() const override { return "UpdateCache/Adaptive"; }

  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;
  Status OnTransactionEnd() override;

  std::size_t patch_count() const { return patch_count_; }
  std::size_t invalidate_count() const { return invalidate_count_; }
  bool IsValid(ProcId id) const;

 private:
  struct Entry {
    std::unique_ptr<ivm::AvmViewMaintainer> maintainer;
    ivm::DeltaSet pending;
    bool valid = true;
    /// Patches applied since the last Access() of this procedure.
    std::size_t unread_patches = 0;
    CacheBudget::EntryId budget_id = 0;
    /// Latch-free eviction poll (null when no budget is attached).
    const std::atomic<bool>* live = nullptr;
  };

  bool EntryLive(const Entry& entry) const {
    return entry.live == nullptr ||
           entry.live->load(std::memory_order_acquire);
  }

  void HandleWrite(const std::string& relation, const rel::Tuple& tuple,
                   bool is_insert);

  double patch_fraction_;
  std::size_t max_unread_patches_;
  std::vector<Entry> entries_;
  ILockTable locks_{config_.shards};
  Status deferred_error_;
  std::size_t patch_count_ = 0;
  std::size_t invalidate_count_ = 0;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_UPDATE_CACHE_ADAPTIVE_H_
