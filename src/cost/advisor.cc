#include "cost/advisor.h"

#include <algorithm>
#include <sstream>

#include "util/table_printer.h"

namespace procsim::cost {

namespace {

std::vector<std::pair<Strategy, double>> RankStrategies(
    const AnalyticModel& model) {
  std::vector<std::pair<Strategy, double>> ranking;
  for (Strategy strategy : kAllStrategies) {
    ranking.emplace_back(strategy, model.CostPerQuery(strategy));
  }
  // Stable: ties (e.g. AVM vs RVM on a join-free population) resolve to the
  // enum order AR, CI, AVM, RVM.
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  return ranking;
}

bool IsUpdateCache(Strategy strategy) {
  return strategy == Strategy::kUpdateCacheAvm ||
         strategy == Strategy::kUpdateCacheRvm;
}

std::string Rationale(const Params& params, const Recommendation& rec,
                      bool safety_override) {
  std::ostringstream out;
  const double p = params.UpdateProbability();
  out << "P=" << TablePrinter::FormatDouble(p, 3) << ", object size f="
      << TablePrinter::FormatDouble(params.f, 6) << ": ";
  switch (rec.strategy) {
    case Strategy::kAlwaysRecompute:
      out << "updates dominate; any cached copy would be maintained or "
             "recomputed more often than it is read, so recomputing on "
             "demand is cheapest";
      break;
    case Strategy::kCacheInvalidate:
      if (safety_override) {
        out << "within the safety margin of Update Cache and far more "
               "robust if the update rate grows (CI plateaus near Always "
               "Recompute; UC degrades severely)";
      } else {
        out << "objects are small enough that recomputing after an "
               "invalidation costs about as much as patching, without the "
               "per-update maintenance bill";
      }
      break;
    case Strategy::kUpdateCacheAvm:
      out << "low update rate and non-trivial objects: incremental "
          << "maintenance is much cheaper than recomputation; sharing "
          << "factor/join shape favors the non-shared algebraic algorithm";
      break;
    case Strategy::kUpdateCacheRvm:
      out << "low update rate and non-trivial objects: incremental "
          << "maintenance is much cheaper than recomputation; enough shared "
          << "subexpressions (SF="
          << TablePrinter::FormatDouble(params.SF, 2)
          << ") for the Rete network to win";
      break;
  }
  return out.str();
}

}  // namespace

Recommendation RecommendStrategy(const Params& params, ProcModel model,
                                 double safety_margin) {
  AnalyticModel analytic(params, model);
  Recommendation rec;
  rec.ranking = RankStrategies(analytic);
  rec.strategy = rec.ranking.front().first;
  rec.expected_cost_ms = rec.ranking.front().second;

  bool safety_override = false;
  if (safety_margin > 1.0 && IsUpdateCache(rec.strategy)) {
    const double ci = analytic.CostPerQuery(Strategy::kCacheInvalidate);
    if (ci <= rec.expected_cost_ms * safety_margin) {
      rec.strategy = Strategy::kCacheInvalidate;
      rec.expected_cost_ms = ci;
      safety_override = true;
    }
  }
  rec.rationale = Rationale(params, rec, safety_override);
  return rec;
}

Recommendation RecommendForProcedureType(const Params& params,
                                         ProcModel model,
                                         bool is_join_procedure,
                                         double safety_margin) {
  Params restricted = params;
  const double population = params.N1 + params.N2;
  if (is_join_procedure) {
    restricted.N1 = 0;
    restricted.N2 = population;
  } else {
    restricted.N1 = population;
    restricted.N2 = 0;
  }
  return RecommendStrategy(restricted, model, safety_margin);
}

std::string DeploymentAdvice(const Params& params, ProcModel model) {
  AnalyticModel analytic(params, model);
  const double ar = analytic.CostPerQuery(Strategy::kAlwaysRecompute);
  const double ci = analytic.CostPerQuery(Strategy::kCacheInvalidate);
  const double uc = std::min(analytic.CostPerQuery(Strategy::kUpdateCacheAvm),
                             analytic.CostPerQuery(Strategy::kUpdateCacheRvm));
  std::ostringstream out;
  out << "Staged deployment (paper §8):\n";
  out << "  1. Implement Always Recompute first (simplest; baseline "
      << TablePrinter::FormatDouble(ar, 1) << " ms/access).\n";
  out << "  2. Add Cache and Invalidate";
  if (ci < ar) {
    out << " — saves " << TablePrinter::FormatDouble(100 * (1 - ci / ar), 0)
        << "% here and degrades gracefully if caching a poor candidate.\n";
  } else {
    out << " — no benefit at this update rate, but harmless: its cost "
           "plateaus just above Always Recompute.\n";
  }
  out << "  3. Add Update Cache if the effort is justified";
  if (uc < ci) {
    out << " — a further "
        << TablePrinter::FormatDouble(100 * (1 - uc / ci), 0)
        << "% over Cache and Invalidate (large objects benefit most), and "
           "the view-maintenance code doubles as a materialized view "
           "facility.\n";
  } else {
    out << " — not worthwhile at these parameters.\n";
  }
  return out.str();
}

}  // namespace procsim::cost
