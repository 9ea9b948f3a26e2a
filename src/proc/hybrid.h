#ifndef PROCSIM_PROC_HYBRID_H_
#define PROCSIM_PROC_HYBRID_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/advisor.h"
#include "proc/strategy.h"

namespace procsim::proc {

/// \brief Per-procedure strategy assignment — the paper's §8 open question
/// ("how to decide whether or not to maintain a cached copy of a given
/// object", Sellis's caching decision extended to Update Cache).
///
/// Each registered procedure is routed to the strategy the analytic cost
/// advisor recommends for its type (selection vs join) in the configured
/// environment; the sub-strategies run side by side over the same database,
/// each built by MakeStrategy exactly as a single-strategy run builds it.
/// The advisor's safety margin (kSafetyMargin) biases toward Cache and
/// Invalidate when Update Cache's advantage is thin, implementing the
/// paper's "CI is the safer algorithm" guidance.
class HybridStrategy : public Strategy {
 public:
  /// See cost::RecommendStrategy: CI is chosen over a cheaper Update Cache
  /// variant when CI costs at most 25% more.
  static constexpr double kSafetyMargin = 1.25;

  /// \param params / model  the environment the advisor evaluates; also
  ///                        the sub-strategies' parameters (MakeStrategy)
  /// \param budget          shared by every sub-strategy (non-null)
  HybridStrategy(rel::Catalog* catalog, rel::Executor* executor,
                 CostMeter* meter, const cost::Params& params,
                 cost::ProcModel model, CacheBudget* budget);

  std::string name() const override { return "Hybrid"; }

  Status AddProcedure(const DatabaseProcedure& procedure) override;
  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;
  Status OnTransactionEnd() override;

  /// Which strategy procedure `id` was assigned to.
  cost::Strategy AssignmentFor(ProcId id) const;

  /// Number of procedures routed to each strategy, in enum order
  /// (AR, CI, AVM, RVM).
  std::vector<std::size_t> AssignmentCounts() const;

  /// The private sub-strategies, indexed by cost::Strategy value — for
  /// audit::ValidateEngine, which validates their Rete network and i-lock
  /// table like the top-level strategies'.
  const std::vector<std::unique_ptr<Strategy>>& subs() const { return subs_; }

 private:
  struct Route {
    cost::Strategy strategy;
    ProcId local_id;  ///< dense id within the sub-strategy
  };

  Strategy* SubStrategy(cost::Strategy strategy);

  cost::Params params_;
  cost::ProcModel model_;
  std::vector<Route> routes_;
  std::vector<std::unique_ptr<Strategy>> subs_;  ///< indexed by enum value
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_HYBRID_H_
