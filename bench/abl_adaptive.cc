// Ablation AB5: the adaptive patch-vs-invalidate rule (UpdateCacheAvmStrategy
// with finite patch thresholds) across the update-probability sweep,
// measured on the real system.  Pure AVM degrades severely at high P
// (paper §8); pure CI forfeits incremental maintenance at low P; the
// adaptive rule should approximate the lower envelope with a single
// threshold.
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "proc/update_cache_avm.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("abl_adaptive", argc, argv);
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

  bench::PrintHeader(
      "Ablation AB5",
      "adaptive patch-vs-invalidate vs pure CI/AVM (measured, scaled N)",
      params);

  TablePrinter table(
      {"P", "CI", "AVM", "Adaptive(0.1)", "Adaptive(0.5)", "Adaptive(2.0)"});
  const std::vector<double> p_values =
      report.quick() ? std::vector<double>{0.2, 0.8}
                     : std::vector<double>{0.05, 0.2, 0.5, 0.8};
  for (double p : p_values) {
    cost::Params point = params;
    point.SetUpdateProbability(p);
    sim::Simulator::Options options;
    options.params = point;
    options.seed = 31;

    std::vector<std::string> row{TablePrinter::FormatDouble(p, 2)};
    for (cost::Strategy strategy :
         {cost::Strategy::kCacheInvalidate, cost::Strategy::kUpdateCacheAvm}) {
      Result<sim::SimulationResult> run =
          sim::Simulator::Run(strategy, options);
      if (!run.ok()) {
        std::cerr << run.status().ToString() << "\n";
        return 1;
      }
      row.push_back(
          TablePrinter::FormatDouble(run.ValueOrDie().avg_ms_per_query, 1));
      report.AddScalar(
          (strategy == cost::Strategy::kCacheInvalidate ? "ci_ms_p_"
                                                        : "avm_ms_p_") +
              TablePrinter::FormatDouble(p, 2),
          run.ValueOrDie().avg_ms_per_query);
    }
    for (double fraction : {0.1, 0.5, 2.0}) {
      Result<sim::SimulationResult> run = sim::Simulator::RunWithFactory(
          [&](sim::Database* db, proc::CacheBudget* budget) {
            return std::make_unique<proc::UpdateCacheAvmStrategy>(
                db->catalog.get(), db->executor.get(), &db->meter,
                static_cast<std::size_t>(point.S), budget, fraction,
                /*max_unread_patches=*/4);
          },
          options);
      if (!run.ok()) {
        std::cerr << run.status().ToString() << "\n";
        return 1;
      }
      row.push_back(
          TablePrinter::FormatDouble(run.ValueOrDie().avg_ms_per_query, 1));
      report.AddScalar("adaptive_" + TablePrinter::FormatDouble(fraction, 1) +
                           "_ms_p_" + TablePrinter::FormatDouble(p, 2),
                       run.ValueOrDie().avg_ms_per_query);
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nThe adaptive columns should track min(CI, AVM) across the "
               "sweep; small patch fractions behave like CI at high P, large "
               "ones like AVM at low P.\n";
  return report.Write() ? 0 : 1;
}
