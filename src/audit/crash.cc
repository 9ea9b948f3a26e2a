#include "audit/crash.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/validate.h"
#include "util/logging.h"
#include "util/rng.h"

namespace procsim::audit {
namespace {

using sim::WorkloadOp;

/// Prefixes `status` with the crash point it was detected at.
Status AtCrashPoint(std::size_t point, std::size_t total,
                    const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), "crash point " + std::to_string(point) + "/" +
                                   std::to_string(total) + ": " +
                                   status.message());
}

/// All structure validators against one recovered engine.
Status ValidateRecovered(txn::TxnEngine* engine) {
  PROCSIM_RETURN_IF_ERROR(
      ValidateStructures(*engine->database(), engine->strategies()));
  return engine->wal().CheckConsistency();
}

/// Advances the reference database across `records[from, to)`: buffers
/// mutation records per transaction and applies a transaction's ops when
/// its commit record enters the prefix — the same order recovery replays
/// them in.  Returns true if any commit landed (the oracle digest changed).
Status AdvanceReference(sim::Database* db, const sim::WorkloadMix& mix,
                        const std::vector<storage::WalRecord>& records,
                        std::size_t from, std::size_t to,
                        std::map<uint64_t, std::vector<WorkloadOp>>* buffered,
                        bool* digest_stale) {
  for (std::size_t i = from; i < to; ++i) {
    const storage::WalRecord& record = records[i];
    switch (record.kind) {
      case storage::WalRecord::Kind::kMutation:
        (*buffered)[record.txn].push_back(
            WorkloadOp{static_cast<WorkloadOp::Kind>(record.a), record.b});
        break;
      case storage::WalRecord::Kind::kCommit: {
        const auto it = buffered->find(record.txn);
        if (it == buffered->end()) break;  // read-only transaction
        for (const WorkloadOp& op : it->second) {
          Result<sim::MutationResult> applied =
              sim::ApplyMutationOp(db, op, mix, /*inline_rng=*/nullptr);
          PROCSIM_RETURN_IF_ERROR(applied.status());
        }
        buffered->erase(it);
        *digest_stale = true;
        break;
      }
      case storage::WalRecord::Kind::kAbort:
        buffered->erase(record.txn);
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<WorkloadOp> WrapInTransactions(const std::vector<WorkloadOp>& ops,
                                           const TxnWrapOptions& options) {
  Rng rng(options.seed);
  const double close_probability =
      options.avg_txn_ops == 0 ? 1.0 : 1.0 / options.avg_txn_ops;
  std::vector<WorkloadOp> wrapped;
  wrapped.reserve(ops.size() * 2);
  bool open = false;
  const auto close = [&](bool may_abort) {
    wrapped.push_back(WorkloadOp{
        may_abort && rng.Bernoulli(options.abort_probability)
            ? WorkloadOp::Kind::kAbort
            : WorkloadOp::Kind::kCommit,
        0});
    open = false;
  };
  for (const WorkloadOp& op : ops) {
    if (sim::IsTxnMarker(op.kind)) continue;  // re-wrap from scratch
    if (op.kind == WorkloadOp::Kind::kAccess) {
      wrapped.push_back(op);
      continue;
    }
    if (!open) {
      wrapped.push_back(WorkloadOp{WorkloadOp::Kind::kBegin, 0});
      open = true;
    }
    wrapped.push_back(op);
    if (rng.Bernoulli(close_probability)) close(/*may_abort=*/true);
  }
  // Never leave the stream mid-transaction: recovery semantics would
  // discard the suffix, which is coverage lost, not gained.
  if (open) close(/*may_abort=*/false);
  return wrapped;
}

Result<CrashSweepReport> CrashPointSweep(const CrashSweepOptions& options,
                                         const std::vector<WorkloadOp>& ops) {
  for (const WorkloadOp& op : ops) {
    if (sim::IsMutationOp(op.kind) && op.value == 0) {
      return Status::InvalidArgument(
          "crash sweep streams must be op-seeded (mutation value != 0): "
          "recovery replays ops without an inline RNG stream");
    }
  }

  // Live run: the engine whose WAL the sweep slices.
  Result<std::unique_ptr<txn::TxnEngine>> created =
      txn::TxnEngine::Create(options.engine);
  if (!created.ok()) return created.status();
  txn::TxnEngine& live = *created.ValueOrDie();
  if (options.checkpoint_after_ops > 0 &&
      options.checkpoint_after_ops < ops.size()) {
    // Split at the first transaction boundary past the requested op count,
    // so neither half of the stream is cut mid-transaction.
    std::size_t split = ops.size();
    bool in_txn = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == WorkloadOp::Kind::kBegin) in_txn = true;
      if (ops[i].kind == WorkloadOp::Kind::kCommit ||
          ops[i].kind == WorkloadOp::Kind::kAbort) {
        in_txn = false;
      }
      if (i + 1 >= options.checkpoint_after_ops && !in_txn) {
        split = i + 1;
        break;
      }
    }
    PROCSIM_RETURN_IF_ERROR(live.Run(
        std::vector<WorkloadOp>(ops.begin(),
                                ops.begin() + static_cast<std::ptrdiff_t>(
                                                  split))));
    PROCSIM_RETURN_IF_ERROR(live.TakeCheckpoint());
    PROCSIM_RETURN_IF_ERROR(live.Run(std::vector<WorkloadOp>(
        ops.begin() + static_cast<std::ptrdiff_t>(split), ops.end())));
  } else {
    PROCSIM_RETURN_IF_ERROR(live.Run(ops));
  }
  PROCSIM_RETURN_IF_ERROR(live.Flush());
  const std::vector<storage::WalRecord> wal = live.WalSnapshot();

  // Reference: an independently maintained database advanced commit by
  // commit as the crash point moves forward.
  Result<std::unique_ptr<sim::Database>> ref_built = sim::BuildDatabase(
      options.engine.params, options.engine.model, options.engine.seed);
  if (!ref_built.ok()) return ref_built.status();
  sim::Database* ref_db = ref_built.ValueOrDie().get();
  std::map<uint64_t, std::vector<WorkloadOp>> ref_buffered;
  std::string ref_digest = txn::OracleStateDigest(ref_db);

  CrashSweepReport report;
  report.wal_records = wal.size();
  const std::size_t stride = std::max<std::size_t>(1, options.stride);
  std::size_t advanced_through = 0;
  for (std::size_t point = 0; point <= wal.size();
       point = point < wal.size() ? std::min(point + stride, wal.size())
                                  : point + 1) {
    // Catch the reference up to this prefix.
    bool digest_stale = false;
    PROCSIM_RETURN_IF_ERROR(AdvanceReference(ref_db, options.engine.mix, wal,
                                             advanced_through, point,
                                             &ref_buffered, &digest_stale));
    advanced_through = point;
    if (digest_stale) ref_digest = txn::OracleStateDigest(ref_db);

    // Crash: only the first `point` records survive.  Recover and check.
    txn::TxnEngine::RecoveryReport recovery;
    Result<std::unique_ptr<txn::TxnEngine>> recovered = txn::TxnEngine::Recover(
        options.engine,
        std::vector<storage::WalRecord>(
            wal.begin(), wal.begin() + static_cast<std::ptrdiff_t>(point)),
        options.injection, &recovery);
    if (!recovered.ok()) {
      return AtCrashPoint(point, wal.size(), recovered.status());
    }
    txn::TxnEngine& engine = *recovered.ValueOrDie();
    ++report.crash_points_checked;
    report.discarded_records += recovery.discarded_records;
    if (point == wal.size()) {
      report.committed_txns = recovery.committed_txns;
      report.replayed_mutations = recovery.replayed_mutations;
    }

    Result<std::string> digest = engine.StateDigest();
    if (!digest.ok()) return AtCrashPoint(point, wal.size(), digest.status());
    if (digest.ValueOrDie() != ref_digest) {
      return AtCrashPoint(
          point, wal.size(),
          Status::Internal("recovered database diverges from the committed "
                           "prefix (atomicity or durability violation)"));
    }
    if (options.compare_strategies_at_every_point || point == wal.size()) {
      PROCSIM_RETURN_IF_ERROR(
          AtCrashPoint(point, wal.size(), engine.CompareAllAgainstOracle()));
    }
    if (options.validate_structures) {
      PROCSIM_RETURN_IF_ERROR(
          AtCrashPoint(point, wal.size(), ValidateRecovered(&engine)));
    }
  }
  return report;
}

}  // namespace procsim::audit
