#ifndef PROCSIM_AUDIT_CROSSCHECK_H_
#define PROCSIM_AUDIT_CROSSCHECK_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/workload.h"
#include "txn/engine.h"
#include "util/status.h"

namespace procsim::audit {

/// Configuration for one differential-oracle run.
struct CrossCheckOptions {
  /// The engine under test: paper parameters (only the structural ones
  /// matter — the oracle checks answers, not charges), model, seed, shard
  /// count and cache budget, and the op mix GenerateOpStream draws from.
  /// Set `engine.mix.update_batch` to `engine.params.l` for the paper's
  /// update transactions.  An adversarially tiny cache budget forces
  /// constant eviction; the byte-identity guarantee must hold regardless
  /// (eviction is not invalidation — a recompute restores the exact value).
  txn::TxnEngine::Options engine;

  /// Number of randomized workload steps GenerateOpStream draws.
  std::size_t steps = 500;

  /// After every committed update transaction, compare this many
  /// procedures across all strategies (0 = every procedure).
  std::size_t compare_sample = 0;

  /// Also run audit::ValidateEngine (catalog/indexes, Rete network,
  /// i-locks, cache budget, WAL) after every committed update transaction.
  bool validate_structures = true;
};

/// What a clean run did.
struct CrossCheckReport {
  std::size_t steps = 0;
  std::size_t accesses = 0;
  /// Committed mutation ops, by kind (kSilentUpdate counts as an update).
  std::size_t update_transactions = 0;
  std::size_t base_inserts = 0;
  std::size_t base_deletes = 0;
  /// Individual (procedure, strategy) result comparisons performed; each
  /// compared byte-for-byte against the un-metered from-scratch oracle.
  std::size_t comparisons = 0;
  /// Cache-budget evictions over the run (0 when the budget is unlimited).
  std::uint64_t cache_evictions = 0;
};

/// \brief The cross-strategy differential oracle.
///
/// Drives ONE txn::TxnEngine — one database with all six strategies
/// attached: Always Recompute, Cache+Invalidate, UpdateCache/AVM,
/// UpdateCache/RVM, Hybrid and UpdateCache/Adaptive — through a seeded
/// random interleaving of update transactions, base-table inserts/deletes
/// and procedure accesses.  Every access's answer, which the engine already
/// requires all six strategies to agree on, must be byte-identical
/// (serialized, sorted) to a from-scratch recomputation; after every
/// committed update transaction the sampled procedures are compared the
/// same way.  Any divergence aborts the run with a Status naming the
/// strategy and the procedure.
///
/// The strategies differ only in cost, never in answers — this is the
/// paper's core correctness property, and the property every refactor of
/// the maintenance machinery must preserve.
Result<CrossCheckReport> CrossCheck(const CrossCheckOptions& options);

/// \brief The op stream CrossCheck(options) would execute, reified.
///
/// Every op is self-contained (see sim::WorkloadOp), so the stream can be
/// replayed through RunOpStream, sliced by the delta-debugging reducer, or
/// merged with other sessions' streams by the concurrent session pool —
/// all observing identical per-op behavior.
std::vector<sim::WorkloadOp> GenerateOpStream(const CrossCheckOptions& options);

/// \brief Replays an explicit op stream under the differential oracle:
/// creates the options' engine and runs `ops` through TxnEngine::Run,
/// comparing every access against the from-scratch oracle and running the
/// comparison sweep and validators after every committed transaction that
/// queued a mutation.  Mutations must be op-seeded (value != 0); a value-0
/// mutation is InvalidArgument.
///
/// kSilentUpdate ops mutate the base table but skip strategy notification
/// AND the transaction-end hook, so the comparison after their commit
/// reports the stale cache — the planted bug the reducer shrinks toward.
///
/// If `access_digests` is non-null, the canonical result bytes
/// (sim::CanonicalResultBytes) of every kAccess op are appended in
/// execution order — the byte-identity witness the deterministic
/// concurrent-interleaving test compares against.
Result<CrossCheckReport> RunOpStream(
    const CrossCheckOptions& options, const std::vector<sim::WorkloadOp>& ops,
    std::vector<std::string>* access_digests = nullptr);

}  // namespace procsim::audit

#endif  // PROCSIM_AUDIT_CROSSCHECK_H_
