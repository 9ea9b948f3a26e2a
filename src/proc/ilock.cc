#include "proc/ilock.h"

#include <algorithm>

#include "obs/metrics.h"

namespace procsim::proc {
namespace {

obs::Counter* const g_locks_set =
    obs::GlobalMetrics().RegisterCounter("proc.ilock.locks_set");
obs::Counter* const g_broken_found =
    obs::GlobalMetrics().RegisterCounter("proc.ilock.broken_found");

}  // namespace

using Guard = util::RankedLockGuard;

void ILockTable::AddIntervalLock(ProcId owner, const std::string& relation,
                                 std::size_t column, int64_t lo, int64_t hi) {
  Guard guard(latch_);
  locks_by_relation_[relation].push_back(Lock{owner, column, lo, hi});
  g_locks_set->Add();
}

void ILockTable::ClearLocks(ProcId owner) {
  Guard guard(latch_);
  for (auto& [relation, locks] : locks_by_relation_) {
    locks.erase(std::remove_if(locks.begin(), locks.end(),
                               [owner](const Lock& lock) {
                                 return lock.owner == owner;
                               }),
                locks.end());
  }
}

std::vector<ProcId> ILockTable::FindBroken(const std::string& relation,
                                           const rel::Tuple& tuple) const {
  std::vector<ProcId> broken;
  Guard guard(latch_);
  auto it = locks_by_relation_.find(relation);
  if (it == locks_by_relation_.end()) return broken;
  for (const Lock& lock : it->second) {
    if (lock.column >= tuple.arity()) continue;
    const rel::Value& value = tuple.value(lock.column);
    if (!value.is_int64()) continue;
    const int64_t key = value.AsInt64();
    if (key < lock.lo || key > lock.hi) continue;
    if (std::find(broken.begin(), broken.end(), lock.owner) == broken.end()) {
      broken.push_back(lock.owner);
    }
  }
  if (!broken.empty()) g_broken_found->Add(broken.size());
  return broken;
}

std::size_t ILockTable::lock_count() const {
  Guard guard(latch_);
  std::size_t total = 0;
  for (const auto& [relation, locks] : locks_by_relation_) {
    total += locks.size();
  }
  return total;
}

void ILockTable::ForEachLock(
    const std::function<void(const std::string&, ProcId, std::size_t, int64_t,
                             int64_t)>& fn) const {
  Guard guard(latch_);
  for (const auto& [relation, locks] : locks_by_relation_) {
    for (const Lock& lock : locks) {
      fn(relation, lock.owner, lock.column, lock.lo, lock.hi);
    }
  }
}

}  // namespace procsim::proc
