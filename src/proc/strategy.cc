#include "proc/strategy.h"

#include "util/logging.h"

namespace procsim::proc {

Strategy::Strategy(rel::Catalog* catalog, rel::Executor* executor,
                   CostMeter* meter, std::size_t result_tuple_bytes,
                   EngineConfig config, CacheBudget* budget)
    : catalog_(catalog),
      executor_(executor),
      meter_(meter),
      result_tuple_bytes_(result_tuple_bytes),
      config_(config),
      budget_(budget) {
  PROCSIM_CHECK(catalog != nullptr);
  PROCSIM_CHECK(executor != nullptr);
  PROCSIM_CHECK(meter != nullptr);
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

}  // namespace procsim::proc
