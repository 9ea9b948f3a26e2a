#include "proc/hybrid.h"

#include "util/logging.h"

namespace procsim::proc {

HybridStrategy::HybridStrategy(rel::Catalog* catalog, rel::Executor* executor,
                               CostMeter* meter, const cost::Params& params,
                               cost::ProcModel model, CacheBudget* budget)
    : Strategy(catalog, executor, meter, static_cast<std::size_t>(params.S),
               budget),
      params_(params),
      model_(model) {
  // Sub-strategies share the hybrid's budget: their cached copies compete
  // for the same global byte pool as everyone else's.
  for (cost::Strategy kind : cost::kAllStrategies) {
    subs_.push_back(
        MakeStrategy(kind, catalog, executor, meter, params, budget));
  }
}

Strategy* HybridStrategy::SubStrategy(cost::Strategy strategy) {
  return subs_[static_cast<std::size_t>(strategy)].get();
}

Status HybridStrategy::AddProcedure(const DatabaseProcedure& procedure) {
  PROCSIM_RETURN_IF_ERROR(Strategy::AddProcedure(procedure));
  const cost::Recommendation rec = cost::RecommendForProcedureType(
      params_, model_, /*is_join_procedure=*/!procedure.IsSelectionOnly(),
      kSafetyMargin);
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
