#include "txn/lock_manager.h"

#include <string>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::txn {
namespace {

obs::Counter* const g_grants =
    obs::GlobalMetrics().RegisterCounter("txn.lock.grants");
obs::Counter* const g_waits =
    obs::GlobalMetrics().RegisterCounter("txn.lock.waits");
obs::Counter* const g_upgrades =
    obs::GlobalMetrics().RegisterCounter("txn.lock.upgrades");
obs::Counter* const g_deadlocks =
    obs::GlobalMetrics().RegisterCounter("txn.lock.deadlocks");

bool Conflicts(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

}  // namespace

bool LockManager::Compatible(TxnId txn, LockMode mode) const {
  for (const auto& [holder, held] : holders_) {
    if (holder != txn && Conflicts(mode, held)) return false;
  }
  return true;
}

bool LockManager::OlderWaiterConflicts(TxnId txn, LockMode mode) const {
  for (const auto& [other, wanted] : waiting_) {
    if (other >= txn) break;  // waiting_ is TxnId-ordered: only younger remain
    if (Conflicts(mode, wanted)) return true;
  }
  return false;
}

bool LockManager::OtherUpgraderParked(TxnId txn) const {
  // A holder only ever parks to upgrade: X never waits, and S under S is
  // granted on the spot.
  for (const auto& [other, wanted] : waiting_) {
    (void)wanted;
    if (other != txn && holders_.count(other) != 0) return true;
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, LockMode mode) {
  PROCSIM_CHECK_NE(txn, 0u) << "txn id 0 is reserved";
  util::RankedUniqueLock lock(latch_);
  bool counted_wait = false;
  while (true) {
    const auto self = holders_.find(txn);
    const bool holds = self != holders_.end();
    if (holds &&
        (self->second == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::OK();  // already held at a sufficient mode
    }
    // The fairness rule only gates fresh acquisitions (see the class
    // comment for why upgrades are exempt).
    if (Compatible(txn, mode) &&
        (holds || !OlderWaiterConflicts(txn, mode))) {
      holders_[txn] = mode;
      waiting_.erase(txn);
      g_grants->Add();
      if (holds) g_upgrades->Add();
      return Status::OK();
    }
    if (holds && OtherUpgraderParked(txn)) {
      waiting_.erase(txn);
      g_deadlocks->Add();
      return Status::Aborted("txn " + std::to_string(txn) +
                             " aborted: its S->X upgrade would deadlock "
                             "against another parked upgrader");
    }
    waiting_[txn] = mode;
    if (!counted_wait) {
      g_waits->Add();
      counted_wait = true;
    }
    cv_.wait(lock);
  }
}

void LockManager::Release(TxnId txn) {
  {
    util::RankedLockGuard guard(latch_);
    holders_.erase(txn);
    waiting_.erase(txn);
  }
  cv_.notify_all();
}

std::optional<LockMode> LockManager::Held(TxnId txn) const {
  util::RankedLockGuard guard(latch_);
  const auto it = holders_.find(txn);
  if (it == holders_.end()) return std::nullopt;
  return it->second;
}

}  // namespace procsim::txn
