#ifndef PROCSIM_RELATIONAL_EXECUTOR_H_
#define PROCSIM_RELATIONAL_EXECUTOR_H_

#include <vector>

#include "relational/catalog.h"
#include "relational/query.h"
#include "util/cost_meter.h"

namespace procsim::rel {

/// \brief Executes ProcedureQuery plans against a Catalog, charging the
/// paper's CPU costs (C1 per predicate screen) to the CostMeter; disk I/O
/// is charged by the SimulatedDisk underneath.
///
/// Plans are "statically optimized" in the paper's sense: the pipeline
/// order is fixed by the query description (B-tree selection, then hash
/// joins in order) and there is no run-time optimization step.
///
/// Execution is tuple-at-a-time on `std::vector<Tuple>`: the scan screens
/// each fetched tuple inside the B-tree range callback and keeps only the
/// survivors, and each join stage probes the (pre-built) hash index once per
/// outer row and screens every candidate as it arrives.  A tuple is screened
/// against the residual terms until the first one that rejects it, which is
/// exactly what the paper charges C1 for.
///
/// Side information collected during query execution, used by the
/// Cache-and-Invalidate strategy to set i-locks on everything the query
/// read (rule indexing [SSH86]).
struct ExecutionTrace {
  /// For each join stage, the keys probed into that stage's hash index
  /// (including probes that found no match — those set i-locks too).
  std::vector<std::vector<int64_t>> probed_keys;
};

class Executor {
 public:
  Executor(Catalog* catalog, CostMeter* meter)
      : catalog_(catalog), meter_(meter) {}

  /// Runs the full query inside one disk AccessScope (a query never pays
  /// twice for the same page).  If `trace` is non-null, records the data
  /// touched for i-lock registration.
  Result<std::vector<Tuple>> Execute(const ProcedureQuery& query,
                                     ExecutionTrace* trace = nullptr) const;

  /// Runs only the join pipeline of `query` on externally supplied outer
  /// tuples that already satisfy the base selection — the delta-propagation
  /// primitive used by the view-maintenance strategies.  Charged inside the
  /// caller's access scope if one is open.
  Result<std::vector<Tuple>> JoinDeltas(
      const ProcedureQuery& query, const std::vector<Tuple>& base_tuples) const;

  /// Evaluates whether `tuple` of the base relation satisfies the base
  /// selection (range + residual), charging one screen per term evaluated
  /// (at least one).  Used when screening broken-lock tuples.
  Result<bool> MatchesBase(const ProcedureQuery& query,
                           const Tuple& tuple) const;

 private:
  /// The join pipeline: for each stage, probe the inner hash index once per
  /// outer row and screen every candidate with the stage residual, keeping
  /// survivors in (outer row, probe match) order.  Each stage charges one
  /// screen per residual term evaluated on a candidate, at least one.
  Result<std::vector<Tuple>> RunJoins(const ProcedureQuery& query,
                                      std::vector<Tuple> current,
                                      ExecutionTrace* trace = nullptr) const;

  Catalog* catalog_;
  CostMeter* meter_;
};

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_EXECUTOR_H_
