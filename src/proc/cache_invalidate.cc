#include "proc/cache_invalidate.h"

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "relational/tuple.h"
#include "util/logging.h"

namespace procsim::proc {
namespace {

obs::Counter* const g_accesses =
    obs::GlobalMetrics().RegisterCounter("proc.cache_invalidate.accesses");
obs::Counter* const g_invalid_accesses = obs::GlobalMetrics().RegisterCounter(
    "proc.cache_invalidate.invalid_accesses");
obs::Counter* const g_recomputes =
    obs::GlobalMetrics().RegisterCounter("proc.cache_invalidate.recomputes");
obs::Counter* const g_invalidations = obs::GlobalMetrics().RegisterCounter(
    "proc.cache_invalidate.invalidations");
obs::Counter* const g_true_invalidations =
    obs::GlobalMetrics().RegisterCounter(
        "proc.cache_invalidate.true_invalidations");
obs::Counter* const g_false_invalidations =
    obs::GlobalMetrics().RegisterCounter(
        "proc.cache_invalidate.false_invalidations");
obs::Counter* const g_cache_reloads =
    obs::GlobalMetrics().RegisterCounter("cache.entries.reloaded");

}  // namespace

CacheInvalidateStrategy::CacheInvalidateStrategy(
    rel::Catalog* catalog, rel::Executor* executor, CostMeter* meter,
    std::size_t result_tuple_bytes, CacheBudget* budget,
    double invalidation_cost_ms)
    : Strategy(catalog, executor, meter, result_tuple_bytes, budget),
      invalidation_cost_ms_(invalidation_cost_ms) {}

Status CacheInvalidateStrategy::Prepare() {
  storage::MeteringGuard guard(catalog_->disk());
  entries_.clear();
  entries_.resize(procedures_.size());
  for (const DatabaseProcedure& procedure : procedures_) {
    Entry& entry = entries_[procedure.id];
    entry.cache = std::make_unique<ivm::TupleStore>(catalog_->disk(),
                                                    result_tuple_bytes_);
    entry.budget_id = budget_->Register(name() + "/" + procedure.name);
    entry.live = budget_->LiveFlag(entry.budget_id);
    Result<std::vector<rel::Tuple>> value = Recompute(procedure.id);
    if (!value.ok()) return value.status();
  }
  return Status::OK();
}

Result<std::vector<rel::Tuple>> CacheInvalidateStrategy::Recompute(ProcId id) {
  const DatabaseProcedure& procedure = procedures_[id];
  rel::ExecutionTrace trace;
  Result<std::vector<rel::Tuple>> value =
      executor_->Execute(procedure.query, &trace);
  if (!value.ok()) return value.status();
  g_recomputes->Add();
  PROCSIM_RETURN_IF_ERROR(entries_[id].cache->Rebuild(value.ValueOrDie()));
  entries_[id].valid = true;
  budget_->Admit(entries_[id].budget_id,
                 value.ValueOrDie().size() * result_tuple_bytes_);

  // Re-acquire i-locks on everything the recomputation read: the B-tree
  // interval of the base selection and every hash key probed.
  locks_.ClearLocks(id);
  Result<rel::Relation*> base =
      catalog_->GetRelation(procedure.query.base.relation);
  if (!base.ok()) return base.status();
  PROCSIM_CHECK(base.ValueOrDie()->btree_column().has_value());
  locks_.AddIntervalLock(id, procedure.query.base.relation,
                         *base.ValueOrDie()->btree_column(),
                         procedure.query.base.lo, procedure.query.base.hi);
  for (std::size_t stage = 0; stage < procedure.query.joins.size(); ++stage) {
    const rel::JoinStage& join = procedure.query.joins[stage];
    Result<rel::Relation*> inner = catalog_->GetRelation(join.relation);
    if (!inner.ok()) return inner.status();
    PROCSIM_CHECK(inner.ValueOrDie()->hash_column().has_value());
    if (stage < trace.probed_keys.size()) {
      for (int64_t key : trace.probed_keys[stage]) {
        locks_.AddValueLock(id, join.relation,
                            *inner.ValueOrDie()->hash_column(), key);
      }
    }
  }
  return value;
}

Result<std::vector<rel::Tuple>> CacheInvalidateStrategy::Access(ProcId id) {
  if (id >= entries_.size()) {
    return Status::NotFound("no procedure with id " + std::to_string(id));
  }
  access_count_.fetch_add(1, std::memory_order_relaxed);
  g_accesses->Add();
  Entry& entry = entries_[id];
  if (entry.valid) {
    if (EntryLive(entry)) {
      budget_->OnAccess(entry.budget_id);
      return entry.cache->ReadAll();
    }
    // Valid but evicted by the budget: the entry may not serve its pages, so
    // this access degrades to Always-Recompute and re-admits the fresh
    // value.  The pages stay on the disk until Recompute's Rebuild frees
    // them (and charges their read, as for any refresh).
    eviction_reload_count_.fetch_add(1, std::memory_order_relaxed);
    g_cache_reloads->Add();
    return Recompute(id);
  }
  invalid_access_count_.fetch_add(1, std::memory_order_relaxed);
  g_invalid_accesses->Add();
  // Classify the refresh: if the recomputed value matches the stale cache
  // byte for byte, the invalidation was false (the i-lock interval
  // over-approximated the procedure's true read set).  The stale cache is
  // streamed from its pages un-metered.
  rel::CanonicalBag stale(entry.cache->size());
  entry.cache->ForEach([&](const rel::Tuple& tuple) {
    stale.Add(tuple);
    return true;
  });
  const std::string before = std::move(stale).Finish();
  Result<std::vector<rel::Tuple>> value = Recompute(id);
  if (value.ok()) {
    if (rel::CanonicalResultBytes(value.ValueOrDie()) == before) {
      g_false_invalidations->Add();
    } else {
      g_true_invalidations->Add();
    }
  }
  return value;
}

void CacheInvalidateStrategy::HandleWrite(const std::string& relation,
                                          const rel::Tuple& tuple) {
  for (ProcId id : locks_.FindBroken(relation, tuple)) {
    Entry& entry = entries_[id];
    if (!entry.valid) continue;  // already marked
    entry.valid = false;
    if (invalidation_hook_) invalidation_hook_(id);
    invalidation_count_.fetch_add(1, std::memory_order_relaxed);
    g_invalidations->Add();
    meter_->ChargeFixed(invalidation_cost_ms_);
  }
}

void CacheInvalidateStrategy::OnBatch(const std::string& relation,
                                      const ivm::ChangeBatch& changes) {
  // An insert and a delete break the same i-locks.
  for (std::size_t i = 0; i < changes.size(); ++i) {
    HandleWrite(relation, changes.RowAt(i));
  }
}

bool CacheInvalidateStrategy::IsValid(ProcId id) const {
  PROCSIM_CHECK_LT(id, entries_.size());
  return entries_[id].valid;
}

std::vector<bool> CacheInvalidateStrategy::ValidityBitmap() const {
  std::vector<bool> bitmap;
  bitmap.reserve(entries_.size());
  for (const Entry& entry : entries_) bitmap.push_back(entry.valid);
  return bitmap;
}

void CacheInvalidateStrategy::SetValidityMirror(InvalidationHook hook) {
  invalidation_hook_ = std::move(hook);
}

}  // namespace procsim::proc
