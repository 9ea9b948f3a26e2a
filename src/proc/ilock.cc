#include "proc/ilock.h"

#include <algorithm>
#include <mutex>

#include "obs/metrics.h"

namespace procsim::proc {
namespace {

obs::Counter* const g_locks_set =
    obs::GlobalMetrics().RegisterCounter("proc.ilock.locks_set");
obs::Counter* const g_broken_found =
    obs::GlobalMetrics().RegisterCounter("proc.ilock.broken_found");
obs::Counter* const g_shard_lookups =
    obs::GlobalMetrics().RegisterCounter("shard.ilock.lookups");

}  // namespace

using Guard = util::RankedLockGuard;

std::vector<std::unique_ptr<ILockTable::Shard>> ILockTable::MakeShards(
    std::size_t count) {
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }
  return shards;
}

ILockTable::ILockTable() : shards_(MakeShards(map_.size())) {}

void ILockTable::AddIntervalLock(ProcId owner, const std::string& relation,
                                 std::size_t column, int64_t lo, int64_t hi) {
  g_shard_lookups->Add();
  Shard& shard = ShardFor(relation);
  Guard guard(shard.latch);
  shard.locks_by_relation[relation].push_back(Lock{owner, column, lo, hi});
  g_locks_set->Add();
}

void ILockTable::ClearLocks(ProcId owner) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Guard guard(shard->latch);
    for (auto& [relation, locks] : shard->locks_by_relation) {
      locks.erase(std::remove_if(locks.begin(), locks.end(),
                                 [owner](const Lock& lock) {
                                   return lock.owner == owner;
                                 }),
                  locks.end());
    }
  }
}

std::vector<ProcId> ILockTable::FindBroken(const std::string& relation,
                                           const rel::Tuple& tuple) const {
  std::vector<ProcId> broken;
  g_shard_lookups->Add();
  Shard& shard = ShardFor(relation);
  Guard guard(shard.latch);
  auto it = shard.locks_by_relation.find(relation);
  if (it == shard.locks_by_relation.end()) return broken;
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
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Guard guard(shard->latch);
    for (const auto& [relation, locks] : shard->locks_by_relation) {
      total += locks.size();
    }
  }
  return total;
}

std::size_t ILockTable::shard_lock_count(std::size_t index) const {
  Shard& shard = *shards_[map_.At(index)];
  Guard guard(shard.latch);
  std::size_t total = 0;
  for (const auto& [relation, locks] : shard.locks_by_relation) {
    total += locks.size();
  }
  return total;
}

void ILockTable::ForEachLock(
    const std::function<void(const std::string&, ProcId, std::size_t, int64_t,
                             int64_t)>& fn) const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Guard guard(shard->latch);
    for (const auto& [relation, locks] : shard->locks_by_relation) {
      for (const Lock& lock : locks) {
        fn(relation, lock.owner, lock.column, lock.lo, lock.hi);
      }
    }
  }
}

}  // namespace procsim::proc
