#include "proc/invalidation_log.h"

#include <string>
#include <utility>

#include "util/logging.h"

namespace procsim::proc {

using Guard = util::RankedLockGuard;

InvalidationLog::InvalidationLog(std::size_t procedure_count)
    : valid_(procedure_count, true) {}

bool InvalidationLog::IsValid(ProcId id) const {
  Guard guard(latch_);
  PROCSIM_CHECK_LT(id, valid_.size());
  return valid_[id];
}

Status InvalidationLog::Change(ProcId id, bool valid) {
  Guard guard(latch_);
  if (id >= valid_.size()) {
    return Status::InvalidArgument("procedure id out of range: " +
                                   std::to_string(id));
  }
  if (valid_[id] == valid) return Status::OK();  // idempotent, no record
  valid_[id] = valid;
  if (!valid && mirror_) mirror_(id);
  return Status::OK();
}

Status InvalidationLog::MarkInvalid(ProcId id) {
  return Change(id, /*valid=*/false);
}

Status InvalidationLog::MarkValid(ProcId id) {
  return Change(id, /*valid=*/true);
}

std::vector<bool> InvalidationLog::Snapshot() const {
  Guard guard(latch_);
  return valid_;
}

void InvalidationLog::SetMirror(MirrorFn mirror) {
  Guard guard(latch_);
  mirror_ = std::move(mirror);
}

}  // namespace procsim::proc
