#ifndef PROCSIM_SIM_WORKLOAD_H_
#define PROCSIM_SIM_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cost/params.h"
#include "proc/procedure.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "relational/tuple.h"
#include "storage/disk.h"
#include "util/cost_meter.h"
#include "util/rng.h"

namespace procsim::sim {

/// \brief A fully built experiment database: the paper's R1/R2/R3 with the
/// prescribed access methods, plus the generated procedure population.
///
/// Member order matters: the meter must outlive the disk, the disk the
/// catalog.
struct Database {
  CostMeter meter;
  std::unique_ptr<storage::SimulatedDisk> disk;
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<rel::Executor> executor;
  std::vector<proc::DatabaseProcedure> procedures;
  /// RecordIds of all R1 tuples, for drawing update victims.
  std::vector<storage::RecordId> r1_rids;
  /// Key domains used by the generator.
  int64_t r1_keys = 0;   ///< N: R1 keys are uniform over [0, N)
  int64_t r2_count = 0;  ///< |R2|
  int64_t r3_count = 0;  ///< |R3|
};

/// Domain of R2's selection column; C_f2 predicates are intervals of width
/// f2 * kSelectivityDomain.
inline constexpr int64_t kSelectivityDomain = 1'000'000;

/// Column positions in the generated schemas (kept stable for tests).
struct R1Columns {
  static constexpr std::size_t kKey = 0;      ///< B-tree selection attribute
  static constexpr std::size_t kJoinA = 1;    ///< joins to R2.b
  static constexpr std::size_t kPayload = 2;
};
struct R2Columns {
  static constexpr std::size_t kB = 0;     ///< hashed primary
  static constexpr std::size_t kJoinC = 1; ///< joins to R3.d (model 2)
  static constexpr std::size_t kSel2 = 2;  ///< C_f2 selection attribute
};
struct R3Columns {
  static constexpr std::size_t kD = 0;  ///< hashed primary
  static constexpr std::size_t kPayload = 1;
};

/// \brief Builds the paper's database (§3): R1 with N tuples and a clustered
/// B-tree on its selection attribute; R2 (f_R2·N tuples) and R3 (f_R3·N
/// tuples) with hashed primary indexes on their join attributes.  Bulk load
/// is not metered.
///
/// Also generates the procedure population: N1 P1 selections with random
/// key intervals of width ≈ f·N, and N2 P2 joins (2-way under kModel1,
/// 3-way under kModel2) whose C_f2 terms are random intervals of
/// selectivity f2 on R2's selection column.  A fraction SF of P2 procedures
/// reuses the base interval of a random P1 procedure, creating the shared
/// subexpressions RVM exploits.  The procedure list is shuffled so the
/// locality-skewed hot set mixes both types.
Result<std::unique_ptr<Database>> BuildDatabase(const cost::Params& params,
                                                cost::ProcModel model,
                                                uint64_t seed);

/// \brief Applies one update transaction: modifies `l` random R1 tuples in
/// place (fresh uniform key, join attribute and payload), un-metered (the
/// base-table write cost is identical across strategies and excluded by the
/// paper's analysis).  Returns the (old, new) tuple pairs so the caller can
/// notify a strategy with metering on.
Result<std::vector<std::pair<rel::Tuple, rel::Tuple>>> ApplyUpdateTransaction(
    Database* db, std::size_t tuples_to_modify, Rng* rng);

/// \brief A fresh R1 tuple drawn from the same domains BuildDatabase uses.
rel::Tuple RandomR1Tuple(const Database& db, Rng* rng);

/// \brief One step of a generated workload.
///
/// Ops are self-contained: an access names its procedure and a mutation
/// carries the seed of its own private RNG stream, so a recorded op list
/// replays identically regardless of which thread executes it, in what
/// order relative to other sessions' ops, or how a reducer has sliced the
/// list.  This is the property the concurrent session layer and the
/// delta-debugging reducer both rely on.
struct WorkloadOp {
  enum class Kind : uint8_t {
    kAccess,        ///< read one procedure's value
    kUpdate,        ///< in-place update transaction (mix.update_batch tuples)
    kInsert,        ///< base-table insert of a fresh R1 tuple
    kDelete,        ///< base-table delete of a random R1 tuple
    kSilentUpdate,  ///< kUpdate applied WITHOUT notifying strategies — a
                    ///< deliberately lost invalidation, planted to give the
                    ///< reducer and failure-path tests a real bug to find
    kBegin,         ///< transaction boundary: open an explicit transaction
    kCommit,        ///< transaction boundary: commit the open transaction
    kAbort,         ///< transaction boundary: roll the open transaction back
  };
  Kind kind = Kind::kAccess;
  /// kAccess: the procedure id.  Mutations: the seed of the op's private
  /// RNG stream; 0 means "draw from the caller's inline RNG instead",
  /// which preserves the classic Simulator loop's bit-exact stream
  /// consumption.  Txn markers: unused (0).
  uint64_t value = 0;
};

const char* WorkloadOpKindName(WorkloadOp::Kind kind);

/// Begin/commit/abort markers bracket explicit transactions in an op
/// stream.  Ops between a kBegin and its kCommit apply atomically (all
/// strategy notifications, then one transaction-end); ops between a kBegin
/// and a kAbort apply not at all.  Ops outside any marker pair auto-commit
/// one at a time — marker-free streams behave exactly as they always have.
inline bool IsTxnMarker(WorkloadOp::Kind kind) {
  return kind == WorkloadOp::Kind::kBegin ||
         kind == WorkloadOp::Kind::kCommit ||
         kind == WorkloadOp::Kind::kAbort;
}

/// True for ops that change base tables (everything except accesses and
/// transaction markers).
inline bool IsMutationOp(WorkloadOp::Kind kind) {
  return kind != WorkloadOp::Kind::kAccess && !IsTxnMarker(kind);
}

/// Per-step operation mix; the remainder of the probability mass is a
/// procedure access.  The defaults are the differential oracle's mix.
struct WorkloadMix {
  double update_weight = 0.30;
  double insert_weight = 0.10;
  double delete_weight = 0.10;
  /// Tuples modified per update transaction (the paper's l).
  std::size_t update_batch = 1;
  /// R1 is never shrunk below this size: a kDelete op against a smaller
  /// table is a no-op (MutationResult::applied == false).
  std::size_t min_r1_tuples = 8;
};

/// \brief A seeded generator of self-contained workload ops.
///
/// Every consumer of randomized op interleavings — the differential
/// oracle, the fuzz reducer, the concurrent session pool and the bench
/// churn loops — draws from this one generator, so an interleaving
/// observed in any of them can be replayed in all of them.
class Workload {
 public:
  /// \param proc_count  accesses draw uniformly over [0, proc_count)
  Workload(const WorkloadMix& mix, std::size_t proc_count, uint64_t seed);

  WorkloadOp Next();
  std::vector<WorkloadOp> Take(std::size_t n);

  /// The classic Simulator schedule: `k_updates` kUpdate ops and
  /// `q_accesses` kAccess ops Fisher–Yates shuffled with `rng`, all in
  /// inline-RNG mode (value == 0) — consuming `rng` exactly as the
  /// historical scheduling loop did, so simulator figures stay
  /// bit-identical.  The caller interprets each kAccess by drawing from
  /// its own locality model.
  static std::vector<WorkloadOp> ExactSchedule(uint64_t k_updates,
                                               uint64_t q_accesses, Rng* rng);

 private:
  uint64_t NonZeroSeed();

  WorkloadMix mix_;
  std::size_t proc_count_;
  Rng rng_;
};

/// What applying one mutation op did.
struct MutationResult {
  /// (old, new) tuple pairs: update = both set, insert = new only,
  /// delete = old only.  Callers notify strategies old-as-delete then
  /// new-as-insert, in order.
  std::vector<std::pair<std::optional<rel::Tuple>, std::optional<rel::Tuple>>>
      changes;
  /// False when the op was skipped (kDelete against a minimum-size table).
  bool applied = false;
  /// False for kSilentUpdate: the caller must NOT notify strategies.
  bool notify = true;
};

/// \brief Applies one mutation op to the base tables (un-metered, like
/// ApplyUpdateTransaction).  Op-seeded ops (value != 0) use a private RNG;
/// inline ops (value == 0) draw from `inline_rng`.  kAccess ops are
/// rejected — accesses are the caller's business (oracle comparison,
/// strategy access, locality draw).
Result<MutationResult> ApplyMutationOp(Database* db, const WorkloadOp& op,
                                       const WorkloadMix& mix,
                                       Rng* inline_rng);

/// \brief Byte-exact canonical form of a result bag (rel::CanonicalBag):
/// the digest every answer is compared against the oracle by.
using rel::CanonicalResultBytes;

/// \brief The from-scratch oracle's answer for procedure `id`: its query
/// executed with metering off (no check is charged), in
/// CanonicalResultBytes form.
Result<std::string> OracleResultBytes(Database* db, proc::ProcId id);

}  // namespace procsim::sim

#endif  // PROCSIM_SIM_WORKLOAD_H_
