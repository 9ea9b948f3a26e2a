#ifndef PROCSIM_AUDIT_CROSSCHECK_H_
#define PROCSIM_AUDIT_CROSSCHECK_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "cost/params.h"
#include "proc/engine_config.h"
#include "sim/workload.h"
#include "util/status.h"

namespace procsim::audit {

/// Configuration for one differential-oracle run.
struct CrossCheckOptions {
  /// Paper parameters; only the structural ones matter here (N, S, B, d,
  /// f_R2, f_R3, l, N1, N2, SF, f, f2) — costs are ignored because the
  /// oracle checks answers, not charges.
  cost::Params params;
  cost::ProcModel model = cost::ProcModel::kModel1;
  uint64_t seed = 42;

  /// Number of randomized workload steps to execute.
  std::size_t steps = 500;

  /// Per-step operation mix; the remainder is a procedure access.
  double update_weight = 0.30;  ///< in-place update transaction (l tuples)
  double insert_weight = 0.10;  ///< base-table insert of a fresh R1 tuple
  double delete_weight = 0.10;  ///< base-table delete of a random R1 tuple

  /// R1 is never shrunk below this size by random deletes.
  std::size_t min_r1_tuples = 8;

  /// After every update batch, compare this many procedures across all
  /// strategies (0 = every procedure).
  std::size_t compare_sample = 0;

  /// Also run the deep structure validators (catalog/indexes, Rete network,
  /// i-locks, invalidation log, cache budget) after every update batch.
  bool validate_structures = true;

  /// Shard count and cache budget the six strategies run under.  An
  /// adversarially tiny budget forces constant eviction; the oracle's
  /// byte-identity guarantee must hold regardless (eviction is not
  /// invalidation — a recompute restores the exact value).
  proc::EngineConfig engine;
};

/// What a clean run did.
struct CrossCheckReport {
  std::size_t steps = 0;
  std::size_t accesses = 0;
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
/// Builds ONE database and attaches all six strategies to it — Always
/// Recompute, Cache+Invalidate, UpdateCache/AVM, UpdateCache/RVM, Hybrid
/// and UpdateCache/Adaptive — then drives a seeded random interleaving of
/// update transactions, base-table inserts/deletes and procedure accesses.
/// After every update batch (and on every access) each strategy's answer
/// for the sampled procedures must be byte-identical (serialized, sorted)
/// to a from-scratch recomputation; any divergence aborts the run with a
/// Status naming the strategy, the procedure and the first difference.
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
/// builds the options' database plus all six strategies, then executes
/// `ops` — comparing every access against the from-scratch oracle and
/// running CompareBatch/validators after each applied mutation.
///
/// kSilentUpdate ops mutate the base table but skip strategy notification
/// AND the transaction-end hook, so the immediately following comparison
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
