// Ablation AB3: does the §8-style per-procedure strategy choice pay off?
// Runs the *measured* simulator over a P sweep comparing the pure
// strategies against HybridStrategy (advisor-routed per procedure type,
// with the paper's "CI is safer" margin).  The hybrid should track the best
// pure strategy across the sweep without being told which one it is.
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "proc/hybrid.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("abl_hybrid", argc, argv);
  cost::Params params;
  params.N = 20000;
  params.N1 = 20;
  params.N2 = 20;
  params.f = 0.005;
  params.q = 60;
  if (report.quick()) {
    params.N = 4000;
    params.q = 12;
  }

  bench::PrintHeader("Ablation AB3",
                     "hybrid per-procedure assignment vs pure strategies "
                     "(measured, scaled N)",
                     params);

  TablePrinter table(
      {"P", "AR", "CI", "AVM", "RVM", "Hybrid", "hybrid routes AR/CI/AVM/RVM"});
  const std::vector<double> p_values =
      report.quick() ? std::vector<double>{0.2, 0.8}
                     : std::vector<double>{0.05, 0.2, 0.5, 0.8};
  for (double p : p_values) {
    cost::Params point = params;
    point.SetUpdateProbability(p);
    sim::Simulator::Options options;
    options.params = point;
    options.seed = 77;

    std::vector<std::string> row{TablePrinter::FormatDouble(p, 2)};
    for (cost::Strategy strategy :
         {cost::Strategy::kAlwaysRecompute, cost::Strategy::kCacheInvalidate,
          cost::Strategy::kUpdateCacheAvm,
          cost::Strategy::kUpdateCacheRvm}) {
      Result<sim::SimulationResult> run =
          sim::Simulator::Run(strategy, options);
      if (!run.ok()) {
        std::cerr << run.status().ToString() << "\n";
        return 1;
      }
      row.push_back(
          TablePrinter::FormatDouble(run.ValueOrDie().avg_ms_per_query, 1));
      report.AddScalar(std::string(1, bench::WinnerCode(strategy)) +
                           "_ms_p_" + TablePrinter::FormatDouble(p, 2),
                       run.ValueOrDie().avg_ms_per_query);
    }

    std::string routes;
    Result<sim::SimulationResult> hybrid_run = sim::Simulator::RunWithFactory(
        [&](sim::Database* db, proc::CacheBudget* budget) {
          return std::make_unique<proc::HybridStrategy>(
              db->catalog.get(), db->executor.get(), &db->meter, point,
              cost::ProcModel::kModel1, budget);
        },
        options);
    if (!hybrid_run.ok()) {
      std::cerr << hybrid_run.status().ToString() << "\n";
      return 1;
    }
    // Re-derive the routing (deterministic from parameters).
    {
      const auto rec_p1 = cost::RecommendForProcedureType(
          point, cost::ProcModel::kModel1, /*is_join_procedure=*/false,
          proc::HybridStrategy::kSafetyMargin);
      const auto rec_p2 = cost::RecommendForProcedureType(
          point, cost::ProcModel::kModel1, /*is_join_procedure=*/true,
          proc::HybridStrategy::kSafetyMargin);
      routes = "P1->" + cost::StrategyName(rec_p1.strategy) + " P2->" +
               cost::StrategyName(rec_p2.strategy);
    }
    row.push_back(TablePrinter::FormatDouble(
        hybrid_run.ValueOrDie().avg_ms_per_query, 1));
    row.push_back(routes);
    report.AddScalar("hybrid_ms_p_" + TablePrinter::FormatDouble(p, 2),
                     hybrid_run.ValueOrDie().avg_ms_per_query);
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nThe hybrid column should track min(AR, CI, AVM, RVM) at "
               "every P without per-sweep tuning.\n";
  return report.Write() ? 0 : 1;
}
