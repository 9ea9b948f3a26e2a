#ifndef PROCSIM_PROC_UPDATE_CACHE_AVM_H_
#define PROCSIM_PROC_UPDATE_CACHE_AVM_H_

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

/// \brief Update Cache with non-shared algebraic view maintenance
/// (§2, §4.3): every procedure's value is kept up to date at all times, so
/// an access just reads the stored copy.
///
/// Per update transaction, for each procedure whose base-selection i-lock
/// interval contains a written tuple: the tuple is screened against the
/// procedure predicate (C1), added to the procedure's A_net/D_net delta
/// sets (C3 per tuple), and at transaction end the deltas are joined
/// through the procedure's plan and patched into the stored copy
/// (refresh + join I/O).
class UpdateCacheAvmStrategy : public Strategy {
 public:
  using Strategy::Strategy;

  std::string name() const override { return "UpdateCache/AVM"; }

  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;
  Status OnTransactionEnd() override;

  /// Current maintained value without charging (for tests).
  std::vector<rel::Tuple> SnapshotForTesting(ProcId id) const;

 private:
  struct Entry {
    std::unique_ptr<ivm::AvmViewMaintainer> maintainer;
    ivm::DeltaSet pending;
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

  std::vector<Entry> entries_;
  ILockTable locks_{config_.shards};
  Status deferred_error_;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_UPDATE_CACHE_AVM_H_
