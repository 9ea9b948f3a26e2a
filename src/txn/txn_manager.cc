#include "txn/txn_manager.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::txn {
namespace {

obs::Counter* const g_begins =
    obs::GlobalMetrics().RegisterCounter("txn.manager.begins");
obs::Counter* const g_commits =
    obs::GlobalMetrics().RegisterCounter("txn.manager.commits");
obs::Counter* const g_aborts =
    obs::GlobalMetrics().RegisterCounter("txn.manager.aborts");
obs::Counter* const g_group_commits =
    obs::GlobalMetrics().RegisterCounter("txn.manager.group_commits");
obs::Histogram* const g_commit_latency =
    obs::GlobalMetrics().RegisterHistogram("txn.commit.latency_ms",
                                           obs::DefaultCostBuckets());

}  // namespace

using Guard = util::RankedLockGuard;

TxnManager::TxnManager(storage::WriteAheadLog* wal, CostMeter* meter,
                       Options options)
    : wal_(wal), meter_(meter), options_(options) {
  PROCSIM_CHECK(wal_ != nullptr);
  PROCSIM_CHECK_GT(options_.group_commit_size, 0u);
}

TxnId TxnManager::Begin() {
  const TxnId txn = next_txn_.fetch_add(1, std::memory_order_relaxed);
  {
    Guard guard(latch_);
    active_[txn] = Txn{};
  }
  wal_->AppendBegin(txn);
  g_begins->Add();
  return txn;
}

Status TxnManager::CheckOpenLocked(TxnId txn) const {
  const auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("txn " + std::to_string(txn) +
                                   " is not active");
  }
  if (it->second.committing) {
    return Status::InvalidArgument("txn " + std::to_string(txn) +
                                   " is already committing");
  }
  return Status::OK();
}

Status TxnManager::Lock(TxnId txn, LockMode mode) {
  {
    Guard guard(latch_);
    PROCSIM_RETURN_IF_ERROR(CheckOpenLocked(txn));
  }
  return lock_.Acquire(txn, mode);
}

Status TxnManager::LockShared(TxnId txn) {
  return Lock(txn, LockMode::kShared);
}

Status TxnManager::QueueOp(TxnId txn, const sim::WorkloadOp& op) {
  if (!sim::IsMutationOp(op.kind)) {
    return Status::InvalidArgument(
        std::string(sim::WorkloadOpKindName(op.kind)) +
        " is not a bufferable mutation");
  }
  if (op.value == 0) {
    return Status::InvalidArgument(
        "transactional mutations must be op-seeded (value != 0): a deferred "
        "apply has no inline RNG stream to draw from");
  }
  PROCSIM_RETURN_IF_ERROR(Lock(txn, LockMode::kExclusive));
  Guard guard(latch_);
  // Still open: nothing else may finish `txn` while this call runs.
  const auto it = active_.find(txn);
  PROCSIM_CHECK(it != active_.end()) << "txn " << txn << " ended mid-QueueOp";
  it->second.ops.push_back(op);
  return Status::OK();
}

Status TxnManager::Commit(TxnId txn, ApplyFn apply) {
  Guard guard(latch_);
  PROCSIM_RETURN_IF_ERROR(CheckOpenLocked(txn));
  const auto it = active_.find(txn);
  it->second.committing = true;
  it->second.apply = std::move(apply);
  it->second.enqueue_ms = meter_ != nullptr ? meter_->total_ms() : 0.0;
  queue_.push_back(txn);
  // Early lock release: the commit order is fixed by the queue position, so
  // holding locks until the force would only serialize batch-mates against
  // each other.  A crash before the force simply truncates the queue's
  // effects — recovery replays nothing without a kCommit record.
  lock_.Release(txn);
  if (queue_.size() >= options_.group_commit_size) {
    return FlushLocked();
  }
  return Status::OK();
}

Status TxnManager::Abort(TxnId txn) {
  {
    Guard guard(latch_);
    PROCSIM_RETURN_IF_ERROR(CheckOpenLocked(txn));
    active_.erase(txn);
  }
  wal_->AppendAbort(txn);
  lock_.Release(txn);
  g_aborts->Add();
  return Status::OK();
}

Status TxnManager::Flush() {
  Guard guard(latch_);
  if (queue_.empty()) return Status::OK();
  return FlushLocked();
}

Status TxnManager::FlushLocked() {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "txn manager poisoned by an earlier mid-group apply failure; "
        "recover from the WAL instead of flushing");
  }
  // Walk the group in commit order: redo records, apply, commit point.
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const TxnId txn = queue_[i];
    const auto it = active_.find(txn);
    PROCSIM_CHECK(it != active_.end()) << "queued txn missing from table";
    const Txn& state = it->second;
    for (const sim::WorkloadOp& op : state.ops) {
      wal_->AppendMutation(txn, static_cast<uint64_t>(op.kind), op.value);
    }
    if (state.apply) {
      const Status applied = state.apply(txn, state.ops);
      if (!applied.ok()) {
        // The first i transactions reached their commit points: force and
        // retire them so no later flush can re-apply their effects.  The
        // failing transaction never got a kCommit record — durably it never
        // happened — so terminate it with kAbort and drop it.  The in-memory
        // database may hold its partial apply: poison the manager so the
        // damage cannot compound; recovery from the WAL is the remedy.
        wal_->Force();
        RetireCommittedLocked(i);
        wal_->AppendAbort(txn);
        active_.erase(txn);
        queue_.erase(queue_.begin());
        g_aborts->Add();
        poisoned_ = true;
        return applied;
      }
    }
    wal_->AppendCommit(txn);
  }
  // One force makes the whole group durable; its cost is amortized across
  // every transaction in the batch.
  wal_->Force();
  RetireCommittedLocked(queue_.size());
  g_group_commits->Add();
  return Status::OK();
}

void TxnManager::RetireCommittedLocked(std::size_t count) {
  const double now_ms = meter_ != nullptr ? meter_->total_ms() : 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const TxnId txn = queue_[i];
    g_commit_latency->Observe(now_ms - active_[txn].enqueue_ms);
    active_.erase(txn);
    g_commits->Add();
    commit_count_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(count));
}

void TxnManager::AdvancePastTxn(TxnId max_seen) {
  TxnId current = next_txn_.load(std::memory_order_relaxed);
  while (current <= max_seen &&
         !next_txn_.compare_exchange_weak(current, max_seen + 1,
                                          std::memory_order_relaxed)) {
  }
}

std::size_t TxnManager::pending_commits() const {
  Guard guard(latch_);
  return queue_.size();
}

bool TxnManager::poisoned() const {
  Guard guard(latch_);
  return poisoned_;
}

}  // namespace procsim::txn
