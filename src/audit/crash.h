#ifndef PROCSIM_AUDIT_CRASH_H_
#define PROCSIM_AUDIT_CRASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/workload.h"
#include "txn/engine.h"
#include "util/status.h"

namespace procsim::audit {

/// Parameters for WrapInTransactions.
struct TxnWrapOptions {
  uint64_t seed = 1;
  /// Mean mutation count per explicit transaction (geometric-ish: after
  /// each op the transaction closes with probability 1/avg_txn_ops).
  std::size_t avg_txn_ops = 3;
  /// Probability that a closing marker is kAbort instead of kCommit.
  double abort_probability = 0.1;
};

/// Rewrites a marker-free op stream into one with explicit transactions:
/// runs of mutations are bracketed by kBegin/kCommit (or kAbort with the
/// configured probability).  Accesses pass through where they stand — some
/// land inside transactions, some outside, exercising both read paths.  The
/// wrapped stream exercises multi-op atomicity and rollback in
/// TxnEngine::Run, the one interpreter of marker semantics, and so in the
/// oracle and the crash sweep that drive it.  Markers already present in
/// the input are dropped first.
std::vector<sim::WorkloadOp> WrapInTransactions(
    const std::vector<sim::WorkloadOp>& ops, const TxnWrapOptions& options);

struct CrashSweepOptions {
  /// Engine under test; the reference database is rebuilt from the same
  /// options at every crash point.
  txn::TxnEngine::Options engine;
  /// Planted recovery bug, forwarded into every Recover() call.  With a bug
  /// planted the sweep MUST fail — the harness's own self-test.
  txn::TxnEngine::RecoveryInjection injection;
  /// Check every `stride`-th crash point (1 = every WAL record boundary);
  /// the empty prefix and the full log are always checked.
  std::size_t stride = 1;
  /// Run the structure validators (catalog, i-locks, cache budget, Rete)
  /// on every recovered engine.
  bool validate_structures = true;
  /// Additionally run the six-strategy-vs-oracle sweep on every recovered
  /// engine (quadratically expensive; always run at the full-log point).
  bool compare_strategies_at_every_point = true;
  /// Write a kCheckpoint WAL record (TxnEngine::TakeCheckpoint: the
  /// validity bitmap) after this many ops of the live run, so the sweep
  /// covers recovery both from genesis and from the checkpoint plus the log
  /// tail.  0 = no mid-run checkpoint.
  std::size_t checkpoint_after_ops = 0;
};

struct CrashSweepReport {
  std::size_t wal_records = 0;
  std::size_t crash_points_checked = 0;
  std::size_t committed_txns = 0;       ///< at the full surviving log
  std::size_t replayed_mutations = 0;   ///< at the full surviving log
  std::size_t discarded_records = 0;    ///< summed across crash points
};

/// \brief The crash-point fuzzing harness: runs `ops` through a live
/// TxnEngine, snapshots its WAL, then simulates a crash at every record
/// boundary — recovery from each prefix is cross-checked against an
/// independently maintained reference database (genesis + the committed
/// transactions in that prefix, applied directly).
///
/// Per crash point: the recovered engine's from-scratch oracle digest must
/// equal the reference digest (atomicity + durability: exactly the
/// committed prefix, nothing more, nothing less), every strategy must agree
/// with the recovered oracle (cache-state consistency), the structure
/// validators must pass, and Recover's internal two-sided validity
/// cross-check (log versus replay) must hold.  Any violation fails the
/// sweep with the crash point identified — the failing stream is then fed
/// to ReduceOpStream with a "does any crash point still fail?" probe for a
/// paste-ready minimal reproduction.
Result<CrashSweepReport> CrashPointSweep(const CrashSweepOptions& options,
                                         const std::vector<sim::WorkloadOp>& ops);

}  // namespace procsim::audit

#endif  // PROCSIM_AUDIT_CRASH_H_
