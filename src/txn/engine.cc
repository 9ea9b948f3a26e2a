#include "txn/engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "proc/cache_invalidate.h"
#include "util/logging.h"
#include "util/shard.h"

namespace procsim::txn {

Result<std::unique_ptr<TxnEngine>> TxnEngine::Build(const Options& options)
    NO_THREAD_SAFETY_ANALYSIS {
  auto engine = std::unique_ptr<TxnEngine>(new TxnEngine());
  engine->options_ = options;
  Result<std::unique_ptr<sim::Database>> built =
      sim::BuildDatabase(options.params, options.model, options.seed);
  if (!built.ok()) return built.status();
  engine->db_ = built.TakeValueOrDie();
  Result<sim::StrategySet> strategies = sim::MakeAllStrategies(
      engine->db_.get(), options.params, options.model, options.config);
  if (!strategies.ok()) return strategies.status();
  engine->strategies_ = strategies.TakeValueOrDie();
  engine->wal_ = std::make_unique<storage::WriteAheadLog>(
      &engine->db_->meter, options.config.wal_force_cost_ms);
  engine->txns_ = std::make_unique<TxnManager>(
      engine->wal_.get(), &engine->db_->meter,
      TxnManager::Options{options.config.group_commit_size});
  const std::size_t stripes = std::max<std::size_t>(
      1,
      std::min(util::kDefaultShardCount, engine->db_->procedures.size()));
  engine->slot_stripes_ = std::make_unique<util::LatchStripes>(
      util::LatchRank::kStrategySlot, "TxnEngine::slot", stripes);
  return engine;
}

void TxnEngine::InstallMirror() NO_THREAD_SAFETY_ANALYSIS {
  // Invalidations happen only inside ApplyCommitted, which holds the db
  // latch exclusively while applying_txn_ names the committing transaction.
  strategies_.cache_invalidate->SetValidityMirror(
      [wal = wal_.get(), txn = &applying_txn_](proc::ProcId id) {
        wal->AppendInvalidate(*txn, id);
      });
}

Result<std::unique_ptr<TxnEngine>> TxnEngine::Create(const Options& options) {
  Result<std::unique_ptr<TxnEngine>> engine = Build(options);
  if (!engine.ok()) return engine.status();
  engine.ValueOrDie()->InstallMirror();
  return engine;
}

TxnId TxnEngine::Begin() { return txns_->Begin(); }

Status TxnEngine::Queue(TxnId txn, const sim::WorkloadOp& op) {
  return txns_->QueueOp(txn, op);
}

Result<std::string> TxnEngine::Access(TxnId txn, uint64_t access_id) {
  PROCSIM_RETURN_IF_ERROR(txns_->LockShared(txn));
  util::RankedSharedLockGuard db_guard(db_latch_);
  const auto id =
      static_cast<proc::ProcId>(access_id % db_->procedures.size());
  // The slot stripe serializes concurrent refreshes of one cache slot
  // (e.g. two sessions both finding CacheInvalidate's entry invalid).
  util::RankedLockGuard slot_guard(slot_stripes_->For(id));
  return Access(id, /*expected=*/nullptr, "under transactional access");
}

Result<std::string> TxnEngine::Access(proc::ProcId id,
                                      const std::string* expected,
                                      const char* against) {
  std::string agreed;
  for (const std::unique_ptr<proc::Strategy>& strategy : strategies_.all) {
    Result<std::vector<rel::Tuple>> answer = strategy->Access(id);
    if (!answer.ok()) {
      return Status::Internal(strategy->name() + " failed accessing " +
                              db_->procedures[id].name + ": " +
                              answer.status().ToString());
    }
    std::string digest = sim::CanonicalResultBytes(answer.ValueOrDie());
    if (expected == nullptr) {
      agreed = std::move(digest);
      expected = &agreed;
    } else if (digest != *expected) {
      return Status::Internal(strategy->name() + " diverged on " +
                              db_->procedures[id].name + " " + against);
    }
  }
  return agreed;
}

Status TxnEngine::Commit(TxnId txn) {
  return txns_->Commit(txn, [this](TxnId t,
                                   const std::vector<sim::WorkloadOp>& ops) {
    return ApplyCommitted(t, ops, /*skip_invalidation=*/false);
  });
}

Status TxnEngine::Abort(TxnId txn) { return txns_->Abort(txn); }

Status TxnEngine::Flush() { return txns_->Flush(); }

Status TxnEngine::ApplyCommitted(TxnId txn,
                                 const std::vector<sim::WorkloadOp>& ops,
                                 bool skip_invalidation) {
  util::RankedLockGuard db_guard(db_latch_);
  applying_txn_ = txn;  // tags the invalidation records the apply logs
  // WAL record order (= the op order here) is the serialization order, and
  // ApplyTransaction keeps it change for change.
  std::vector<proc::Strategy*> notified;
  for (const std::unique_ptr<proc::Strategy>& strategy : strategies_.all) {
    if (skip_invalidation && strategy.get() == strategies_.cache_invalidate) {
      continue;  // the planted recovery bug: a lost invalidation
    }
    notified.push_back(strategy.get());
  }
  return sim::ApplyTransaction(db_.get(), ops, options_.mix,
                               /*inline_rng=*/nullptr, notified);
}

Status TxnEngine::TakeCheckpoint() {
  PROCSIM_RETURN_IF_ERROR(txns_->Flush());
  // Exclusive: an access's recompute sets its entry's flag under the
  // shared latch.
  util::RankedLockGuard db_guard(db_latch_);
  wal_->AppendCheckpoint(strategies_.cache_invalidate->ValidityBitmap());
  return Status::OK();
}

Status TxnEngine::Run(const std::vector<sim::WorkloadOp>& ops,
                      const RunObserver& observe) {
  // `open` tracks the transaction currently holding locks — explicit
  // (kBegin) or the implicit one wrapped around a bare op — and `queued`
  // its mutations.  Any error return below leaves it for the rollback at
  // the bottom, so a failed op can never leak a transaction that pins R1
  // forever.
  TxnId open = 0;
  std::vector<sim::WorkloadOp> queued;
  const auto commit_open = [&]() -> Status {
    const TxnId txn = open;
    open = 0;  // Commit terminates the txn even when it fails
    PROCSIM_RETURN_IF_ERROR(Commit(txn));
    RunEvent event;
    event.committed = queued;
    const Status observed = observe ? observe(event) : Status::OK();
    queued.clear();
    return observed;
  };
  const auto run_all = [&]() -> Status {
    for (const sim::WorkloadOp& op : ops) {
      const bool implicit = open == 0 && !sim::IsTxnMarker(op.kind);
      if (implicit) open = Begin();
      switch (op.kind) {
        case sim::WorkloadOp::Kind::kBegin:
          if (open != 0) {
            return Status::InvalidArgument(
                "nested kBegin: transaction " + std::to_string(open) +
                " is still open");
          }
          open = Begin();
          break;
        case sim::WorkloadOp::Kind::kCommit:
          if (open == 0) {
            return Status::InvalidArgument(
                "kCommit without an open transaction");
          }
          PROCSIM_RETURN_IF_ERROR(commit_open());
          break;
        case sim::WorkloadOp::Kind::kAbort: {
          if (open == 0) {
            return Status::InvalidArgument(
                "kAbort without an open transaction");
          }
          const TxnId txn = open;
          open = 0;
          queued.clear();
          PROCSIM_RETURN_IF_ERROR(Abort(txn));
          break;
        }
        case sim::WorkloadOp::Kind::kAccess: {
          Result<std::string> digest = Access(open, op.value);
          PROCSIM_RETURN_IF_ERROR(digest.status());
          if (observe) {
            RunEvent event;
            event.access = &op;
            event.digest = digest.TakeValueOrDie();
            PROCSIM_RETURN_IF_ERROR(observe(event));
          }
          break;
        }
        default:  // mutations
          PROCSIM_RETURN_IF_ERROR(Queue(open, op));
          queued.push_back(op);
          break;
      }
      if (implicit) PROCSIM_RETURN_IF_ERROR(commit_open());
    }
    return Status::OK();
  };
  Status result = run_all();
  // A transaction still open here — an unterminated stream tail, or an op
  // that failed mid-transaction — never reached its commit point: roll it
  // back, exactly as recovery would discard it.
  if (open != 0) {
    const Status rollback = Abort(open);
    if (result.ok()) result = rollback;
  }
  return result;
}

Result<std::string> TxnEngine::StateDigest() {
  return OracleStateDigest(db_.get());
}

std::string OracleStateDigest(sim::Database* db) {
  std::string digest;
  for (proc::ProcId id = 0; id < db->procedures.size(); ++id) {
    Result<std::string> oracle = sim::OracleResultBytes(db, id);
    PROCSIM_CHECK(oracle.ok()) << "oracle execution failed on "
                               << db->procedures[id].name << ": "
                               << oracle.status().ToString();
    const std::string& bytes = oracle.ValueOrDie();
    digest += std::to_string(id) + ":" + std::to_string(bytes.size()) + ":";
    digest += bytes;
  }
  return digest;
}

Status TxnEngine::CompareAllAgainstOracle() NO_THREAD_SAFETY_ANALYSIS {
  // Retire any pending commit group first, so the swept state is the fully
  // committed one and no queued transaction is applied unchecked after it.
  // The sweep then runs inside one real (read-only) transaction.  It logs
  // no invalidations, but its commit is part of the history callers
  // measure: fig21's golden counts it (without it, 48 commits become 47 and
  // the group-16 run forces 3 times instead of 4).
  PROCSIM_RETURN_IF_ERROR(txns_->Flush());
  const TxnId txn = Begin();
  for (proc::ProcId id = 0; id < db_->procedures.size(); ++id) {
    Result<std::string> oracle = sim::OracleResultBytes(db_.get(), id);
    PROCSIM_RETURN_IF_ERROR(oracle.status());
    PROCSIM_RETURN_IF_ERROR(
        Access(id, &oracle.ValueOrDie(), "against the from-scratch oracle")
            .status());
  }
  PROCSIM_RETURN_IF_ERROR(txns_->Commit(txn, nullptr));
  return txns_->Flush();
}

Result<std::unique_ptr<TxnEngine>> TxnEngine::Recover(
    const Options& options, std::vector<storage::WalRecord> surviving,
    const RecoveryInjection& injection,
    RecoveryReport* report) NO_THREAD_SAFETY_ANALYSIS {
  Result<std::unique_ptr<TxnEngine>> built = Build(options);
  if (!built.ok()) return built.status();
  TxnEngine& engine = *built.ValueOrDie();

  // Install the surviving prefix verbatim as the revived engine's log:
  // history re-grows past it, so the recovered engine can crash again.
  PROCSIM_RETURN_IF_ERROR(engine.wal_->ResetFrom(surviving));

  // Pass 1 (analysis): a transaction's effects are durable iff its kCommit
  // record survived the crash prefix.
  std::set<TxnId> committed;
  TxnId max_txn = 0;
  for (const storage::WalRecord& record : surviving) {
    max_txn = std::max(max_txn, record.txn);
    if (record.kind == storage::WalRecord::Kind::kCommit) {
      committed.insert(record.txn);
    }
  }
  engine.txns_->AdvancePastTxn(max_txn);

  // Pass 2 (redo): replay each committed transaction's buffered ops at its
  // commit record, through the SAME apply path the live flush uses — one
  // organic pass rebuilds heaps, indexes, invalidation bitmaps, i-locks and
  // budget live-flags together.  Per-transaction records are contiguous
  // ([kMutation...][kInvalidate...][kCommit]), and commit records appear in
  // serialization order, so replay order == live apply order.  The replayed
  // validity bitmap is snapshotted at the latest checkpoint (before any, it
  // is the freshly prepared all-valid one) for Pass 3.
  std::map<TxnId, std::vector<sim::WorkloadOp>> buffered;
  std::size_t replayed_mutations = 0;
  std::size_t discarded = 0;
  std::optional<std::size_t> checkpoint_index;
  std::vector<bool> replay_valid_at_checkpoint =
      engine.strategies_.cache_invalidate->ValidityBitmap();
  for (std::size_t i = 0; i < surviving.size(); ++i) {
    const storage::WalRecord& record = surviving[i];
    const bool durable = committed.count(record.txn) > 0;
    switch (record.kind) {
      case storage::WalRecord::Kind::kMutation: {
        if (!durable) {
          ++discarded;
          break;
        }
        const auto kind = static_cast<sim::WorkloadOp::Kind>(record.a);
        if (record.a > static_cast<uint64_t>(sim::WorkloadOp::Kind::kAbort) ||
            !sim::IsMutationOp(kind) || record.b == 0) {
          return Status::Internal("corrupt mutation record at LSN " +
                                  std::to_string(record.lsn));
        }
        buffered[record.txn].push_back(sim::WorkloadOp{kind, record.b});
        break;
      }
      case storage::WalRecord::Kind::kCommit: {
        const auto it = buffered.find(record.txn);
        if (it == buffered.end()) break;  // read-only transaction
        replayed_mutations += it->second.size();
        PROCSIM_RETURN_IF_ERROR(engine.ApplyCommitted(
            record.txn, it->second, injection.drop_invalidation_replay));
        buffered.erase(it);
        break;
      }
      case storage::WalRecord::Kind::kCheckpoint:
        checkpoint_index = i;
        replay_valid_at_checkpoint =
            engine.strategies_.cache_invalidate->ValidityBitmap();
        break;
      case storage::WalRecord::Kind::kBegin:
      case storage::WalRecord::Kind::kAbort:
      case storage::WalRecord::Kind::kInvalidate:
        if (!durable) ++discarded;
        break;
    }
  }

  // Pass 3 (cross-check): restore the validity bitmap purely from the log —
  // the latest surviving checkpoint minus the committed invalidations after
  // it — and hold it against the organically replayed engine both ways.
  // Replay never re-validates (it serves no accesses), and until a
  // procedure's first invalidation the live engine and the replay hold the
  // same i-locks (an eviction reload re-acquires the same ones), so both
  // first invalidate it at the same commit.  Hence a log-invalid procedure
  // must be replay-invalid, and a procedure the replay first invalidated
  // after the checkpoint must be log-invalid.  (One the replay already held
  // invalid at the checkpoint may have been re-validated live, so its log
  // bit is unconstrained: cached bytes are not durable.)
  const std::size_t proc_count = engine.db_->procedures.size();
  std::vector<bool> log_valid(proc_count, true);
  std::size_t first_tail_record = 0;
  if (checkpoint_index.has_value()) {
    const storage::WalRecord& checkpoint = surviving[*checkpoint_index];
    if (checkpoint.bitmap.size() != proc_count) {
      return Status::Internal(
          "checkpoint bitmap covers " +
          std::to_string(checkpoint.bitmap.size()) + " procedures, expected " +
          std::to_string(proc_count));
    }
    log_valid = checkpoint.bitmap;
    first_tail_record = *checkpoint_index + 1;
  }
  for (std::size_t i = first_tail_record; i < surviving.size(); ++i) {
    const storage::WalRecord& record = surviving[i];
    if (record.kind != storage::WalRecord::Kind::kInvalidate) continue;
    if (committed.count(record.txn) == 0) continue;
    if (record.a >= proc_count) {
      return Status::Internal("invalidation record at LSN " +
                              std::to_string(record.lsn) +
                              " names procedure " + std::to_string(record.a) +
                              " outside the catalog");
    }
    log_valid[record.a] = false;
  }
  for (proc::ProcId id = 0; id < proc_count; ++id) {
    const bool replay_valid = engine.strategies_.cache_invalidate->IsValid(id);
    if (!log_valid[id] && replay_valid) {
      return Status::Internal(
          "recovery lost the invalidation of " + engine.db_->procedures[id].name +
          ": the committed log marks it invalid but the replayed cache "
          "still claims validity");
    }
    if (log_valid[id] && !replay_valid && replay_valid_at_checkpoint[id]) {
      return Status::Internal(
          "the log lost the invalidation of " +
          engine.db_->procedures[id].name +
          ": the replay invalidated it after the latest checkpoint but no "
          "committed invalidation record names it");
    }
  }

  engine.InstallMirror();
  if (report != nullptr) {
    report->surviving_records = surviving.size();
    report->committed_txns = committed.size();
    report->replayed_mutations = replayed_mutations;
    report->discarded_records = discarded;
    report->log_restored_valid = std::move(log_valid);
  }
  return built;
}

}  // namespace procsim::txn
