#ifndef PROCSIM_PROC_UPDATE_CACHE_AVM_H_
#define PROCSIM_PROC_UPDATE_CACHE_AVM_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ivm/avm.h"
#include "ivm/delta.h"
#include "proc/cache_budget.h"
#include "proc/ilock.h"
#include "proc/strategy.h"

namespace procsim::proc {

/// \brief Update Cache with non-shared algebraic view maintenance
/// (§2, §4.3): every procedure's value is kept up to date, so an access
/// just reads the stored copy.
///
/// Per update transaction, for each procedure whose base-selection i-lock
/// interval contains a written tuple: the tuple is screened against the
/// procedure predicate (C1), added to the procedure's A_net/D_net delta
/// sets (C3 per tuple), and at transaction end the deltas are joined
/// through the procedure's plan and patched into the stored copy
/// (refresh + join I/O).
///
/// Two thresholds may instead invalidate the copy at transaction end, to be
/// recomputed on its next access as Cache and Invalidate does.  This
/// addresses the paper's two §8 warnings: statically chosen maintenance
/// "may not always be optimal" when the update pattern shifts, and Update
/// Cache "degrades severely at high update probabilities".
///   - Size: a net delta of d tuples against a view of v is patched iff
///     d <= patch_fraction * v.  0 degenerates to Cache and Invalidate.
///   - Staleness: after `max_unread_patches` consecutive patches with no
///     read of the object, further maintenance is wasted work, so the object
///     is invalidated — the per-object flavor of Sellis's caching decision.
/// An invalidated copy stays invalid until read.  The defaults are the
/// limit where neither rule can fire: pure AVM, named "UpdateCache/AVM".
/// With either threshold finite the strategy is "UpdateCache/Adaptive".
class UpdateCacheAvmStrategy : public Strategy {
 public:
  static constexpr double kAlwaysPatch =
      std::numeric_limits<double>::infinity();
  static constexpr std::size_t kNoStalenessLimit =
      std::numeric_limits<std::size_t>::max();

  UpdateCacheAvmStrategy(rel::Catalog* catalog, rel::Executor* executor,
                         CostMeter* meter, std::size_t result_tuple_bytes,
                         CacheBudget* budget,
                         double patch_fraction = kAlwaysPatch,
                         std::size_t max_unread_patches = kNoStalenessLimit);

  std::string name() const override {
    return never_invalidates_ ? "UpdateCache/AVM" : "UpdateCache/Adaptive";
  }

  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;
  Status OnTransactionEnd() override;

  std::size_t patch_count() const { return patch_count_; }
  std::size_t invalidate_count() const { return invalidate_count_; }
  bool IsValid(ProcId id) const;

  /// Current maintained value without charging (for tests).
  std::vector<rel::Tuple> SnapshotForTesting(ProcId id) const;

 private:
  struct Entry {
    std::unique_ptr<ivm::AvmViewMaintainer> maintainer;
    ivm::DeltaSet pending;
    bool valid = true;
    /// Patches applied since the last Access() of this procedure.
    std::size_t unread_patches = 0;
    CacheBudget::EntryId budget_id = 0;
    /// Latch-free eviction poll.
    const std::atomic<bool>* live = nullptr;
  };

  bool EntryLive(const Entry& entry) const {
    return entry.live->load(std::memory_order_acquire);
  }

  void HandleWrite(const std::string& relation, const rel::Tuple& tuple,
                   bool is_insert);

  double patch_fraction_;
  std::size_t max_unread_patches_;
  /// Both thresholds at their limit: the instance is pure AVM.
  bool never_invalidates_;
  std::vector<Entry> entries_;
  ILockTable locks_;
  Status deferred_error_;
  std::size_t patch_count_ = 0;
  std::size_t invalidate_count_ = 0;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_UPDATE_CACHE_AVM_H_
