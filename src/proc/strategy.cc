#include "proc/strategy.h"

#include "proc/always_recompute.h"
#include "proc/cache_invalidate.h"
#include "proc/update_cache_avm.h"
#include "proc/update_cache_rvm.h"
#include "util/logging.h"

namespace procsim::proc {

Strategy::Strategy(rel::Catalog* catalog, rel::Executor* executor,
                   CostMeter* meter, std::size_t result_tuple_bytes,
                   CacheBudget* budget)
    : catalog_(catalog),
      executor_(executor),
      meter_(meter),
      result_tuple_bytes_(result_tuple_bytes),
      budget_(budget) {
  PROCSIM_CHECK(catalog != nullptr);
  PROCSIM_CHECK(executor != nullptr);
  PROCSIM_CHECK(meter != nullptr);
  PROCSIM_CHECK(budget != nullptr);
}

Status Strategy::AddProcedure(const DatabaseProcedure& procedure) {
  if (procedure.id != procedures_.size()) {
    return Status::InvalidArgument(
        "procedure ids must be dense and added in order; expected " +
        std::to_string(procedures_.size()));
  }
  procedures_.push_back(procedure);
  return Status::OK();
}

void Strategy::OnBatch(const std::string&, const ivm::ChangeBatch&) {}

std::unique_ptr<Strategy> MakeStrategy(cost::Strategy kind,
                                       rel::Catalog* catalog,
                                       rel::Executor* executor,
                                       CostMeter* meter,
                                       const cost::Params& params,
                                       CacheBudget* budget) {
  const auto tuple_bytes = static_cast<std::size_t>(params.S);
  switch (kind) {
    case cost::Strategy::kAlwaysRecompute:
      return std::make_unique<AlwaysRecomputeStrategy>(
          catalog, executor, meter, tuple_bytes, budget);
    case cost::Strategy::kCacheInvalidate:
      return std::make_unique<CacheInvalidateStrategy>(
          catalog, executor, meter, tuple_bytes, budget, params.C_inval);
    case cost::Strategy::kUpdateCacheAvm:
      return std::make_unique<UpdateCacheAvmStrategy>(
          catalog, executor, meter, tuple_bytes, budget);
    case cost::Strategy::kUpdateCacheRvm:
      return std::make_unique<UpdateCacheRvmStrategy>(
          catalog, executor, meter, tuple_bytes, budget);
  }
  PROCSIM_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace procsim::proc
