#ifndef PROCSIM_COST_MODEL_H_
#define PROCSIM_COST_MODEL_H_

#include <string>

#include "cost/params.h"

namespace procsim::cost {

/// Query-processing strategies compared by the paper.
enum class Strategy {
  kAlwaysRecompute,
  kCacheInvalidate,
  kUpdateCacheAvm,  ///< non-shared algebraic view maintenance
  kUpdateCacheRvm,  ///< shared Rete view maintenance
};

/// The four strategies in enum order.
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kAlwaysRecompute, Strategy::kCacheInvalidate,
    Strategy::kUpdateCacheAvm, Strategy::kUpdateCacheRvm};

/// Short display name ("AR", "CI", "AVM", "RVM").
std::string StrategyName(Strategy strategy);

/// \brief Intermediate quantities of the analysis, exposed so tests can pin
/// each formula individually and benches can print breakdowns.
struct CostBreakdown {
  // Always Recompute components (§4.1 / §6.1).
  double c_query_p1 = 0;  ///< cost to compute a P1 procedure
  double c_query_p2 = 0;  ///< cost to compute a P2 procedure (2- or 3-way)
  double c_process_query = 0;

  // Cache and Invalidate components (§4.2 / §6.2).
  double proc_size_pages = 0;  ///< expected pages of a stored procedure value
  double t1 = 0;               ///< recompute + refresh cache
  double t2 = 0;               ///< read valid cached value
  double t3 = 0;               ///< invalidation recording per query
  double invalid_probability = 0;  ///< IP

  // Update Cache components, per update transaction (§4.3-4.4 / §6.3-6.4).
  double c_read = 0;
  double c_screen_p1 = 0;
  double c_screen_p2 = 0;      ///< AVM; for RVM scaled by (1 - SF)
  double c_refresh_p1 = 0;
  double c_refresh_p2 = 0;
  double c_refresh_alpha = 0;  ///< RVM only
  double c_overhead = 0;       ///< AVM delta-set bookkeeping
  double c_join = 0;           ///< AVM join probes (2 relations in model 2)
  double c_join_memory = 0;    ///< RVM probes into right α/β memory

  double total = 0;  ///< expected cost per procedure access, ms
};

/// \brief The paper's analytic cost model for both procedure models.
///
/// All methods return the expected cost in milliseconds of one procedure
/// access (queries amortize the per-update maintenance cost by k/q).
class AnalyticModel {
 public:
  explicit AnalyticModel(const Params& params, ProcModel model)
      : p_(params), model_(model) {}

  const Params& params() const { return p_; }
  ProcModel model() const { return model_; }

  /// Expected cost per access for the given strategy.
  double CostPerQuery(Strategy strategy) const;

  /// Full component breakdown for the given strategy.
  CostBreakdown Breakdown(Strategy strategy) const;

  /// The strategy with the minimum expected cost (ties broken in enum
  /// order: AR, CI, AVM, RVM).
  Strategy Winner() const;

  /// Winner restricted to {AR, CI, best-of(AVM, RVM)} — the three-way
  /// comparison used for the paper's region plots.
  Strategy WinnerThreeWay() const;

  // --- individual formula pieces (public for unit tests) ------------------

  /// Cost to compute a P1 procedure: C1*f*N + C2*ceil(f*b) + C2*H1.
  double CQueryP1() const;
  /// Cost to compute a P2 procedure (2-way join in model 1; +R3 probe pass
  /// in model 2).
  double CQueryP2() const;
  /// Population-weighted expected recompute cost.
  double CProcessQuery() const;
  /// Expected size in pages of a stored procedure value.
  double ProcSizePages() const;
  /// Probability that an update transaction invalidates a given procedure:
  /// 1 - (1-f)^(2l).
  double PInval() const;
  /// Probability that a cached value is invalid at access time (IP),
  /// accounting for the two-class locality model.
  double InvalidProbability() const;

 private:
  CostBreakdown AlwaysRecomputeBreakdown() const;
  CostBreakdown CacheInvalidateBreakdown() const;
  CostBreakdown UpdateCacheAvmBreakdown() const;
  CostBreakdown UpdateCacheRvmBreakdown() const;

  Params p_;
  ProcModel model_;
};

}  // namespace procsim::cost

#endif  // PROCSIM_COST_MODEL_H_
