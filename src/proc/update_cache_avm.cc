#include "proc/update_cache_avm.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::proc {
namespace {

obs::Counter* const g_accesses =
    obs::GlobalMetrics().RegisterCounter("proc.update_cache_avm.accesses");
obs::Counter* const g_delta_tuples = obs::GlobalMetrics().RegisterCounter(
    "proc.update_cache_avm.delta_tuples_applied");
obs::Counter* const g_refreshes = obs::GlobalMetrics().RegisterCounter(
    "proc.update_cache_avm.cache_refreshes");
obs::Counter* const g_cache_reloads =
    obs::GlobalMetrics().RegisterCounter("cache.entries.reloaded");

}  // namespace

Status UpdateCacheAvmStrategy::Prepare() {
  storage::MeteringGuard guard(catalog_->disk());
  entries_.clear();
  entries_.resize(procedures_.size());
  for (const DatabaseProcedure& procedure : procedures_) {
    Entry& entry = entries_[procedure.id];
    entry.maintainer = std::make_unique<ivm::AvmViewMaintainer>(
        procedure.query, executor_, catalog_->disk(), result_tuple_bytes_);
    PROCSIM_RETURN_IF_ERROR(entry.maintainer->Initialize());
    if (budget_ != nullptr) {
      entry.budget_id = budget_->Register(name() + "/" + procedure.name);
      entry.live = budget_->LiveFlag(entry.budget_id);
      budget_->Admit(entry.budget_id, entry.maintainer->store().size() *
                                          result_tuple_bytes_);
    }
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
  if (!deferred_error_.ok()) return deferred_error_;
  if (id >= entries_.size()) {
    return Status::NotFound("no procedure with id " + std::to_string(id));
  }
  g_accesses->Add();
  Entry& entry = entries_[id];
  if (EntryLive(entry)) {
    if (budget_ != nullptr) budget_->OnAccess(entry.budget_id);
    return entry.maintainer->Read();
  }
  // Evicted by the budget: the maintained copy is gone, so recompute from
  // the base tables (AR-like degradation), re-seed the maintainer, and
  // re-admit the fresh value.  Deltas accumulated for the dead copy are
  // stale — the recomputation already reflects them.
  g_cache_reloads->Add();
  Result<std::vector<rel::Tuple>> value =
      executor_->Execute(entry.maintainer->query());
  if (!value.ok()) return value.status();
  PROCSIM_RETURN_IF_ERROR(entry.maintainer->ResetContents(value.ValueOrDie()));
  entry.pending.Clear();
  if (budget_ != nullptr) {
    budget_->Admit(entry.budget_id,
                   value.ValueOrDie().size() * result_tuple_bytes_);
  }
  return value;
}

void UpdateCacheAvmStrategy::HandleWrite(const std::string& relation,
                                         const rel::Tuple& tuple,
                                         bool is_insert) {
  for (ProcId id : locks_.FindBroken(relation, tuple)) {
    Entry& entry = entries_[id];
    // An evicted copy cannot be patched; the next access recomputes it, so
    // tracking deltas for it would only waste C3 work.
    if (!EntryLive(entry)) continue;
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
    if (entry.pending.empty()) continue;
    g_delta_tuples->Add(entry.pending.TotalNetSize());
    PROCSIM_RETURN_IF_ERROR(entry.maintainer->ApplyBaseDelta(entry.pending));
    entry.pending.Clear();
    g_refreshes->Add();
    if (budget_ != nullptr) {
      budget_->Resize(entry.budget_id, entry.maintainer->store().size() *
                                           result_tuple_bytes_);
    }
  }
  return Status::OK();
}

std::vector<rel::Tuple> UpdateCacheAvmStrategy::SnapshotForTesting(
    ProcId id) const {
  PROCSIM_CHECK_LT(id, entries_.size());
  return entries_[id].maintainer->store().SnapshotForTesting();
}

}  // namespace procsim::proc
