#include "ivm/avm.h"

#include "util/logging.h"

namespace procsim::ivm {

AvmViewMaintainer::AvmViewMaintainer(rel::ProcedureQuery query,
                                     rel::Executor* executor,
                                     storage::SimulatedDisk* disk,
                                     std::size_t pad_to_bytes)
    : query_(std::move(query)),
      executor_(executor),
      disk_(disk),
      store_(disk, pad_to_bytes) {
  PROCSIM_CHECK(executor != nullptr);
  PROCSIM_CHECK(disk != nullptr);
}

Status AvmViewMaintainer::Initialize() {
  Result<std::vector<rel::Tuple>> value = executor_->Execute(query_);
  if (!value.ok()) return value.status();
  return store_.Rebuild(value.ValueOrDie());
}

Status AvmViewMaintainer::ApplyBaseDelta(const DeltaSet& delta) {
  if (delta.empty()) return Status::OK();
  // A_net and D_net, in the delta set's order: the order the view-store
  // patches below are applied in.
  std::vector<rel::Tuple> net_inserts;
  std::vector<rel::Tuple> net_deletes;
  delta.NetRows(&net_inserts, &net_deletes);
  // V(a, B): join the inserted base tuples through the view's join chain.
  Result<std::vector<rel::Tuple>> view_inserts =
      executor_->JoinDeltas(query_, net_inserts);
  if (!view_inserts.ok()) return view_inserts.status();
  // V(d, B): the deleted base tuples join against the *unchanged* other
  // relations, reproducing exactly the view tuples to remove.
  Result<std::vector<rel::Tuple>> view_deletes =
      executor_->JoinDeltas(query_, net_deletes);
  if (!view_deletes.ok()) return view_deletes.status();

  // Patch the stored copy; one access scope so a page touched by several
  // delta tuples is charged once (the Yao-function assumption).
  storage::AccessScope scope(disk_);
  for (const rel::Tuple& tuple : view_inserts.ValueOrDie()) {
    PROCSIM_RETURN_IF_ERROR(store_.Insert(tuple));
  }
  for (const rel::Tuple& tuple : view_deletes.ValueOrDie()) {
    PROCSIM_RETURN_IF_ERROR(store_.Remove(tuple));
  }
  return Status::OK();
}

}  // namespace procsim::ivm
