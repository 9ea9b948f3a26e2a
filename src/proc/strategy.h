#ifndef PROCSIM_PROC_STRATEGY_H_
#define PROCSIM_PROC_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/model.h"
#include "ivm/delta.h"
#include "proc/procedure.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "util/cost_meter.h"

namespace procsim::proc {

class CacheBudget;

/// \brief Base class of the paper's query-processing strategies for
/// database procedures: Always Recompute, Cache and Invalidate, and the two
/// Update Cache variants (AVM, RVM).
///
/// Lifecycle:
///   1. construct, AddProcedure() for every stored procedure;
///   2. Prepare() — static compilation: plans, caches, Rete networks,
///      initial materialization (run with metering disabled internally);
///   3. workload: the driver reports each update transaction's base-table
///      writes as one ordered change batch via OnBatch (an in-place
///      modification is a delete of the old value + an insert of the new
///      one) and then calls OnTransactionEnd(); procedure reads go through
///      Access().  sim::ApplyTransaction is that driver for every caller.
///
/// Notifications are explicit rather than fired by the relations, so the
/// base-table write I/O itself (identical across strategies, excluded by the
/// paper's analysis) is not charged to any strategy.
class Strategy {
 public:
  /// `budget` accounts every cached result this strategy materializes and
  /// may evict entries between accesses (the strategy then degrades to
  /// recompute-on-access for that entry); an unlimited CacheBudget(0)
  /// accounts without evicting.  It must be non-null and outlive the
  /// strategy.
  Strategy(rel::Catalog* catalog, rel::Executor* executor, CostMeter* meter,
           std::size_t result_tuple_bytes, CacheBudget* budget);
  virtual ~Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  virtual std::string name() const = 0;

  /// Registers a stored procedure; call before Prepare().
  virtual Status AddProcedure(const DatabaseProcedure& procedure);

  /// Builds the strategy's static structures (precompiled plans, caches,
  /// networks).  Not charged: the paper's algorithms are statically
  /// optimized, paying all compilation cost once, off-line.
  virtual Status Prepare() = 0;

  /// Retrieves the current value of procedure `id`, charging this access's
  /// share of work to the meter.
  virtual Result<std::vector<rel::Tuple>> Access(ProcId id) = 0;

  /// Called after each update transaction's writes have been reported.
  virtual Status OnTransactionEnd() { return Status::OK(); }

  /// Reports one transaction's ordered change run against `relation`: each
  /// change is an insert or a delete, in write order.  A single-row change
  /// is a batch of one.  Errors are deferred to OnTransactionEnd.  The
  /// default ignores writes (Always Recompute keeps no derived state).
  virtual void OnBatch(const std::string& relation,
                       const ivm::ChangeBatch& changes);

  const std::vector<DatabaseProcedure>& procedures() const {
    return procedures_;
  }

 protected:
  rel::Catalog* catalog_;
  rel::Executor* executor_;
  CostMeter* meter_;
  std::size_t result_tuple_bytes_;
  CacheBudget* budget_;
  std::vector<DatabaseProcedure> procedures_;
};

/// Builds the base strategy of `kind` — the paper's AR, CI, AVM or RVM in
/// its §2 form — over one database, with result tuples of `params.S` bytes
/// and CI's invalidation cost `params.C_inval`.  Every driver builds the
/// four this way, so a strategy is charged the same whichever driver runs
/// it.  `budget` must be non-null and outlive the strategy.
std::unique_ptr<Strategy> MakeStrategy(cost::Strategy kind,
                                       rel::Catalog* catalog,
                                       rel::Executor* executor,
                                       CostMeter* meter,
                                       const cost::Params& params,
                                       CacheBudget* budget);

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_STRATEGY_H_
