#include "proc/hybrid.h"

#include "proc/always_recompute.h"
#include "proc/cache_invalidate.h"
#include "proc/update_cache_avm.h"
#include "proc/update_cache_rvm.h"
#include "util/logging.h"

namespace procsim::proc {

HybridStrategy::HybridStrategy(rel::Catalog* catalog, rel::Executor* executor,
                               CostMeter* meter,
                               std::size_t result_tuple_bytes,
                               const cost::Params& params,
                               cost::ProcModel model, double safety_margin,
                               EngineConfig config, CacheBudget* budget)
    : Strategy(catalog, executor, meter, result_tuple_bytes, config, budget),
      params_(params),
      model_(model),
      safety_margin_(safety_margin) {
  // Sub-strategies share the hybrid's budget: their cached copies compete
  // for the same global byte pool as everyone else's.
  subs_.push_back(std::make_unique<AlwaysRecomputeStrategy>(
      catalog, executor, meter, result_tuple_bytes, config, budget));
  subs_.push_back(std::make_unique<CacheInvalidateStrategy>(
      catalog, executor, meter, result_tuple_bytes, params.C_inval, config,
      budget));
  subs_.push_back(std::make_unique<UpdateCacheAvmStrategy>(
      catalog, executor, meter, result_tuple_bytes,
      UpdateCacheAvmStrategy::kAlwaysPatch,
      UpdateCacheAvmStrategy::kNoStalenessLimit, config, budget));
  subs_.push_back(std::make_unique<UpdateCacheRvmStrategy>(
      catalog, executor, meter, result_tuple_bytes,
      rete::ReteNetwork::JoinShape::kRightDeep, config, budget));
}

Strategy* HybridStrategy::SubStrategy(cost::Strategy strategy) {
  return subs_[static_cast<std::size_t>(strategy)].get();
}

Status HybridStrategy::AddProcedure(const DatabaseProcedure& procedure) {
  PROCSIM_RETURN_IF_ERROR(Strategy::AddProcedure(procedure));
  const cost::Recommendation rec = cost::RecommendForProcedureType(
      params_, model_, /*is_join_procedure=*/!procedure.IsSelectionOnly(),
      safety_margin_);
  Strategy* sub = SubStrategy(rec.strategy);
  DatabaseProcedure local = procedure;
  local.id = sub->procedures().size();
  PROCSIM_RETURN_IF_ERROR(sub->AddProcedure(local));
  routes_.push_back(Route{rec.strategy, local.id});
  return Status::OK();
}

Status HybridStrategy::Prepare() {
  for (auto& sub : subs_) {
    PROCSIM_RETURN_IF_ERROR(sub->Prepare());
  }
  return Status::OK();
}

Result<std::vector<rel::Tuple>> HybridStrategy::Access(ProcId id) {
  if (id >= routes_.size()) {
    return Status::NotFound("no procedure with id " + std::to_string(id));
  }
  return SubStrategy(routes_[id].strategy)->Access(routes_[id].local_id);
}

void HybridStrategy::OnBatch(const std::string& relation,
                             const ivm::ChangeBatch& changes) {
  for (auto& sub : subs_) sub->OnBatch(relation, changes);
}

Status HybridStrategy::OnTransactionEnd() {
  for (auto& sub : subs_) {
    PROCSIM_RETURN_IF_ERROR(sub->OnTransactionEnd());
  }
  return Status::OK();
}

cost::Strategy HybridStrategy::AssignmentFor(ProcId id) const {
  PROCSIM_CHECK_LT(id, routes_.size());
  return routes_[id].strategy;
}

std::vector<std::size_t> HybridStrategy::AssignmentCounts() const {
  std::vector<std::size_t> counts(subs_.size(), 0);
  for (const Route& route : routes_) {
    ++counts[static_cast<std::size_t>(route.strategy)];
  }
  return counts;
}

}  // namespace procsim::proc
