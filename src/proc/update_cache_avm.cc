#include "proc/update_cache_avm.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::proc {
namespace {

// The proc.update_cache_avm.* counters count pure-AVM instances only.
obs::Counter* const g_accesses =
    obs::GlobalMetrics().RegisterCounter("proc.update_cache_avm.accesses");
obs::Counter* const g_delta_tuples = obs::GlobalMetrics().RegisterCounter(
    "proc.update_cache_avm.delta_tuples_applied");
obs::Counter* const g_refreshes = obs::GlobalMetrics().RegisterCounter(
    "proc.update_cache_avm.cache_refreshes");
obs::Counter* const g_cache_reloads =
    obs::GlobalMetrics().RegisterCounter("cache.entries.reloaded");

}  // namespace

UpdateCacheAvmStrategy::UpdateCacheAvmStrategy(
    rel::Catalog* catalog, rel::Executor* executor, CostMeter* meter,
    std::size_t result_tuple_bytes, CacheBudget* budget,
    double patch_fraction, std::size_t max_unread_patches)
    : Strategy(catalog, executor, meter, result_tuple_bytes, budget),
      patch_fraction_(patch_fraction),
      max_unread_patches_(max_unread_patches),
      never_invalidates_(patch_fraction == kAlwaysPatch &&
                         max_unread_patches == kNoStalenessLimit) {
  PROCSIM_CHECK_GE(patch_fraction, 0.0);
  PROCSIM_CHECK_GE(max_unread_patches, 1u);
}

Status UpdateCacheAvmStrategy::Prepare() {
  storage::MeteringGuard guard(catalog_->disk());
  entries_.clear();
  entries_.resize(procedures_.size());
  for (const DatabaseProcedure& procedure : procedures_) {
    Entry& entry = entries_[procedure.id];
    entry.maintainer = std::make_unique<ivm::AvmViewMaintainer>(
        procedure.query, executor_, catalog_->disk(), result_tuple_bytes_);
    PROCSIM_RETURN_IF_ERROR(entry.maintainer->Initialize());
    entry.budget_id = budget_->Register(name() + "/" + procedure.name);
    entry.live = budget_->LiveFlag(entry.budget_id);
    budget_->Admit(entry.budget_id,
                   entry.maintainer->store().size() * result_tuple_bytes_);
    // Register the base-selection interval so broken locks can be found.
    Result<rel::Relation*> base =
        catalog_->GetRelation(procedure.query.base.relation);
    if (!base.ok()) return base.status();
    PROCSIM_CHECK(base.ValueOrDie()->btree_column().has_value());
    locks_.AddIntervalLock(procedure.id, procedure.query.base.relation,
                           *base.ValueOrDie()->btree_column(),
                           procedure.query.base.lo, procedure.query.base.hi);
  }
  return Status::OK();
}

Result<std::vector<rel::Tuple>> UpdateCacheAvmStrategy::Access(ProcId id) {
  PROCSIM_RETURN_IF_ERROR(deferred_error_);
  if (id >= entries_.size()) {
    return Status::NotFound("no procedure with id " + std::to_string(id));
  }
  if (never_invalidates_) g_accesses->Add();
  Entry& entry = entries_[id];
  if (entry.valid && EntryLive(entry)) {
    budget_->OnAccess(entry.budget_id);
    entry.unread_patches = 0;
    return entry.maintainer->Read();
  }
  // Invalidated, or evicted by the budget (its pages are kept but no longer
  // served or patched): recompute from the base tables, re-seed the
  // maintainer, whose Rebuild frees the old pages, and re-admit the fresh
  // value.  Deltas accumulated for the dead copy are stale — the
  // recomputation already reflects them.  An eviction of a still-valid copy
  // counts as a reload, not an invalidation.
  if (entry.valid) g_cache_reloads->Add();
  Result<std::vector<rel::Tuple>> value =
      executor_->Execute(entry.maintainer->query());
  if (!value.ok()) return value.status();
  PROCSIM_RETURN_IF_ERROR(entry.maintainer->ResetContents(value.ValueOrDie()));
  entry.valid = true;
  entry.pending.Clear();
  entry.unread_patches = 0;
  budget_->Admit(entry.budget_id,
                 value.ValueOrDie().size() * result_tuple_bytes_);
  return value;
}

void UpdateCacheAvmStrategy::HandleWrite(const std::string& relation,
                                         const rel::Tuple& tuple,
                                         bool is_insert) {
  for (ProcId id : locks_.FindBroken(relation, tuple)) {
    Entry& entry = entries_[id];
    // An invalid or evicted copy cannot be patched; the next access
    // recomputes it, so tracking deltas for it would only waste C3 work.
    if (!entry.valid || !EntryLive(entry)) continue;
    // Screen the written tuple against the full procedure predicate (C1 per
    // term, at least one) and track it in the A_net/D_net structures (C3).
    Result<bool> matches =
        executor_->MatchesBase(entry.maintainer->query(), tuple);
    if (!matches.ok()) {
      deferred_error_ = matches.status();
      return;
    }
    meter_->ChargeDeltaMaintenance();
    if (!matches.ValueOrDie()) continue;
    if (is_insert) {
      entry.pending.AddInsert(tuple);
    } else {
      entry.pending.AddDelete(tuple);
    }
  }
}

void UpdateCacheAvmStrategy::OnBatch(const std::string& relation,
                                     const ivm::ChangeBatch& changes) {
  for (std::size_t i = 0; i < changes.size(); ++i) {
    HandleWrite(relation, changes.RowAt(i), changes.is_insert(i));
  }
}

Status UpdateCacheAvmStrategy::OnTransactionEnd() {
  PROCSIM_RETURN_IF_ERROR(deferred_error_);
  for (Entry& entry : entries_) {
    // A sibling's Resize below may evict this entry mid-loop: its pending
    // deltas are then moot (next access recomputes from base tables).
    if (!EntryLive(entry)) {
      entry.pending.Clear();
      continue;
    }
    if (!entry.valid || entry.pending.empty()) continue;
    const std::size_t delta_size = entry.pending.TotalNetSize();
    const double view_size =
        std::max(1.0, static_cast<double>(entry.maintainer->store().size()));
    if (static_cast<double>(delta_size) <= patch_fraction_ * view_size &&
        entry.unread_patches < max_unread_patches_) {
      if (never_invalidates_) g_delta_tuples->Add(delta_size);
      PROCSIM_RETURN_IF_ERROR(entry.maintainer->ApplyBaseDelta(entry.pending));
      ++patch_count_;
      ++entry.unread_patches;
      if (never_invalidates_) g_refreshes->Add();
      budget_->Resize(entry.budget_id,
                      entry.maintainer->store().size() * result_tuple_bytes_);
    } else {
      entry.valid = false;
      ++invalidate_count_;
    }
    entry.pending.Clear();
  }
  return Status::OK();
}

bool UpdateCacheAvmStrategy::IsValid(ProcId id) const {
  PROCSIM_CHECK_LT(id, entries_.size());
  return entries_[id].valid;
}

std::vector<rel::Tuple> UpdateCacheAvmStrategy::SnapshotForTesting(
    ProcId id) const {
  PROCSIM_CHECK_LT(id, entries_.size());
  return entries_[id].maintainer->store().SnapshotForTesting();
}

}  // namespace procsim::proc
