#include "proc/update_cache_rvm.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::proc {
namespace {

obs::Counter* const g_accesses =
    obs::GlobalMetrics().RegisterCounter("proc.update_cache_rvm.accesses");
obs::Counter* const g_cache_reloads =
    obs::GlobalMetrics().RegisterCounter("cache.entries.reloaded");

}  // namespace

UpdateCacheRvmStrategy::UpdateCacheRvmStrategy(
    rel::Catalog* catalog, rel::Executor* executor, CostMeter* meter,
    std::size_t result_tuple_bytes, CacheBudget* budget,
    rete::ReteNetwork::JoinShape shape)
    : Strategy(catalog, executor, meter, result_tuple_bytes, budget),
      shape_(shape) {}

Status UpdateCacheRvmStrategy::Prepare() {
  storage::MeteringGuard guard(catalog_->disk());
  network_ = std::make_unique<rete::ReteNetwork>(catalog_, meter_,
                                                 result_tuple_bytes_, shape_);
  result_memories_.clear();
  budget_entries_.clear();
  budget_index_.clear();
  // One AddProcedures call, so each relation is scanned once for the whole
  // network's unconditional selections.
  std::vector<rel::ProcedureQuery> queries;
  queries.reserve(procedures_.size());
  for (const DatabaseProcedure& procedure : procedures_) {
    queries.push_back(procedure.query);
  }
  Result<std::vector<rete::MemoryNode*>> memories =
      network_->AddProcedures(queries);
  if (!memories.ok()) return memories.status();
  result_memories_ = memories.TakeValueOrDie();
  // Budget only *terminal* result memories, and only after the whole
  // network is built: a later procedure may have grafted a join on top of
  // an earlier procedure's result memory, making it interior (evicting it
  // would starve the downstream join).  Shared terminal memories register
  // once, under the first owning procedure's name.
  for (std::size_t i = 0; i < result_memories_.size(); ++i) {
    rete::MemoryNode* memory = result_memories_[i];
    if (!memory->successors().empty()) continue;
    if (budget_index_.count(memory) > 0) continue;
    const CacheBudget::EntryId entry_id =
        budget_->Register(name() + "/" + procedures_[i].name);
    memory->BindEvictionFlag(budget_->LiveFlag(entry_id));
    budget_->Admit(entry_id, memory->store().size() * result_tuple_bytes_);
    budget_entries_.emplace_back(memory, entry_id);
    budget_index_.emplace(memory, entry_id);
  }
  return Status::OK();
}

Result<std::vector<rel::Tuple>> UpdateCacheRvmStrategy::Access(ProcId id) {
  if (!deferred_error_.ok()) return deferred_error_;
  if (id >= result_memories_.size()) {
    return Status::NotFound("no procedure with id " + std::to_string(id));
  }
  g_accesses->Add();
  rete::MemoryNode* memory = result_memories_[id];
  const auto budgeted = budget_index_.find(memory);
  if (budgeted != budget_index_.end()) {
    if (memory->evicted()) {
      // The memory kept its pages but dropped every token since eviction:
      // recompute from the base tables, reseed the node (its Rebuild frees
      // the stale pages), and re-admit.
      g_cache_reloads->Add();
      Result<std::vector<rel::Tuple>> value =
          executor_->Execute(procedures_[id].query);
      if (!value.ok()) return value.status();
      PROCSIM_RETURN_IF_ERROR(memory->ResetContents(value.ValueOrDie()));
      budget_->Admit(budgeted->second,
                     value.ValueOrDie().size() * result_tuple_bytes_);
      return value;
    }
    budget_->OnAccess(budgeted->second);
  }
  return memory->ReadAll();
}

void UpdateCacheRvmStrategy::OnBatch(const std::string& relation,
                                     const ivm::ChangeBatch& changes) {
  if (!deferred_error_.ok() || network_ == nullptr) return;
  Status st = network_->OnChanges(relation, changes);
  if (!st.ok()) deferred_error_ = st;
}

Status UpdateCacheRvmStrategy::OnTransactionEnd() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (network_ != nullptr) {
    PROCSIM_AUDIT_OK(network_->ValidateState());
  }
  // Token maintenance resized live memories during the transaction; settle
  // the accounting (which may itself trigger evictions — iterated in the
  // deterministic registration order, and a Resize can kill entries later
  // in the list, which the evicted() check then skips).
  for (const auto& [memory, entry_id] : budget_entries_) {
    if (memory->evicted()) continue;
    budget_->Resize(entry_id, memory->store().size() * result_tuple_bytes_);
  }
  return Status::OK();
}

const rete::ReteNetwork::Stats& UpdateCacheRvmStrategy::network_stats() const {
  PROCSIM_CHECK(network_ != nullptr) << "Prepare() not called";
  return network_->stats();
}

std::string UpdateCacheRvmStrategy::NetworkDot() const {
  PROCSIM_CHECK(network_ != nullptr) << "Prepare() not called";
  return network_->ToDot();
}

std::vector<rel::Tuple> UpdateCacheRvmStrategy::SnapshotForTesting(
    ProcId id) const {
  PROCSIM_CHECK_LT(id, result_memories_.size());
  return result_memories_[id]->store().SnapshotForTesting();
}

}  // namespace procsim::proc
