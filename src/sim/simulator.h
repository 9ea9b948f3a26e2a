#ifndef PROCSIM_SIM_SIMULATOR_H_
#define PROCSIM_SIM_SIMULATOR_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cost/model.h"
#include "proc/cache_budget.h"
#include "proc/engine_config.h"
#include "proc/strategy.h"
#include "sim/workload.h"
#include "util/locality.h"

namespace procsim::proc {
// Forward declarations keep simulator.h independent of concrete strategy
// headers; StrategySet only carries typed pointers.
class CacheInvalidateStrategy;
class UpdateCacheRvmStrategy;
}  // namespace procsim::proc

namespace procsim::sim {

/// Outcome of one simulated run.
struct SimulationResult {
  double total_ms = 0;              ///< metered cost of the whole workload
  double avg_ms_per_query = 0;      ///< total_ms / queries (paper's metric)
  uint64_t queries = 0;
  uint64_t update_transactions = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t screens = 0;
  /// Mismatches found when verify_results was set (0 when unset or clean).
  uint64_t verification_failures = 0;
};

/// \brief Drives a strategy through the paper's workload: k update
/// transactions (l in-place R1 modifications each) and q procedure
/// accesses, randomly interleaved, with the two-class locality model
/// selecting which procedure each access reads.
class Simulator {
 public:
  struct Options {
    cost::Params params;
    cost::ProcModel model = cost::ProcModel::kModel1;
    uint64_t seed = 42;
    /// If set, every Access() result is checked (un-metered) against a
    /// from-scratch recomputation; mismatches are counted.
    bool verify_results = false;
  };

  /// Builds a fresh database for `options` and measures one strategy,
  /// built by proc::MakeStrategy, over the workload.  Identical seeds
  /// produce identical databases and workloads across strategies, so
  /// results are directly comparable.
  static Result<SimulationResult> Run(cost::Strategy strategy_kind,
                                      const Options& options);

  /// Constructs a strategy with `factory` over a freshly built database and
  /// measures it — for strategies that are not one of the four base kinds
  /// (e.g. HybridStrategy) or not in their §2 form.  The factory gets the
  /// run's unlimited cache budget, which outlives the strategy.
  using StrategyFactory = std::function<std::unique_ptr<proc::Strategy>(
      Database* db, proc::CacheBudget* budget)>;
  static Result<SimulationResult> RunWithFactory(const StrategyFactory& factory,
                                                 const Options& options);
};

/// \brief All six strategies attached to one database, with typed views
/// into the two whose internal structures the validators inspect.  Built in
/// a fixed order (AR, CI, AVM, RVM, Hybrid, Adaptive) shared by the
/// differential oracle and the concurrent engine.
struct StrategySet {
  /// Shared memory budget all six strategies admit their cached results
  /// into.  Declared first so it is destroyed last: strategies hold raw
  /// liveness-flag pointers into it.
  std::unique_ptr<proc::CacheBudget> budget;
  std::vector<std::unique_ptr<proc::Strategy>> all;
  proc::CacheInvalidateStrategy* cache_invalidate = nullptr;
  proc::UpdateCacheRvmStrategy* rvm = nullptr;
};

/// Builds the full strategy set over `db`, registers every procedure with
/// every strategy and calls Prepare().  Metering state is untouched.
/// `config.cache_budget_bytes` sizes the cache budget all six strategies
/// share (default: unlimited).  A database with no procedures is
/// InvalidArgument: every driver maps an access id onto the procedure set,
/// which must not be empty.
Result<StrategySet> MakeAllStrategies(Database* db,
                                      const cost::Params& params,
                                      cost::ProcModel model,
                                      const proc::EngineConfig& config = {});

/// \brief The one apply-and-notify path for an update transaction.
///
/// Applies `ops` to `db` in order through ApplyMutationOp (`inline_rng`
/// feeds ops whose value is 0), collects the changes of the applied,
/// notifying ops into one ordered ivm::ChangeBatch — delete-old-then-
/// insert-new per modified tuple — and, if it is non-empty, reports it to
/// each of `strategies` with one OnBatch("R1", ...).  If any op notified,
/// each strategy then gets OnTransactionEnd().  Strategies never read R1
/// while being notified (i-locks, predicate screens and Rete memories are
/// driven by the passed tuples alone), so notifying after the last op is
/// equivalent to notifying after each.  An op that changes nothing (a
/// kDelete against a minimum-size R1) or does not notify (kSilentUpdate)
/// adds nothing to the batch.
///
/// The simulator and the transactional engine (live commits, recovery
/// redo, and so the differential oracle that drives it) all apply through
/// here, so every strategy sees the same change stream whichever driver
/// runs it.
Status ApplyTransaction(Database* db, const std::vector<WorkloadOp>& ops,
                        const WorkloadMix& mix, Rng* inline_rng,
                        std::span<proc::Strategy* const> strategies);

}  // namespace procsim::sim

#endif  // PROCSIM_SIM_SIMULATOR_H_
