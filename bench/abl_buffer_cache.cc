// Ablation AB6: the paper's model charges every page touch as a disk I/O —
// no buffer cache.  How much does that assumption matter?  This bench
// re-runs the measured workload with an LRU buffer cache of increasing
// size: small caches absorb the B-tree upper levels and hash directories
// (helping Always Recompute most, since it re-descends indexes on every
// access); large caches start holding procedure results and base pages,
// compressing all strategies toward their CPU costs.
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("abl_buffer_cache", argc, argv);
  cost::Params params;
  params.N = 20000;
  params.N1 = 20;
  params.N2 = 20;
  params.f = 0.005;
  params.q = 60;
  params.SetUpdateProbability(0.3);
  if (report.quick()) {
    params.N = 4000;
    params.q = 12;
    params.SetUpdateProbability(0.3);
  }

  bench::PrintHeader("Ablation AB6",
                     "effect of a buffer cache the paper's model omits "
                     "(measured ms/query, P = 0.3, scaled N)",
                     params);

  TablePrinter table({"cache pages", "AR", "CI", "AVM", "RVM"});
  const std::vector<std::size_t> cache_sizes =
      report.quick() ? std::vector<std::size_t>{0, 64}
                     : std::vector<std::size_t>{0, 16, 64, 256, 1024};
  for (std::size_t cache_pages : cache_sizes) {
    std::vector<std::string> row{
        cache_pages == 0 ? "none (paper)" : std::to_string(cache_pages)};
    for (cost::Strategy strategy : cost::kAllStrategies) {
      sim::Simulator::Options options;
      options.params = params;
      options.seed = 55;
      Result<sim::SimulationResult> run = sim::Simulator::RunWithFactory(
          [&](sim::Database* db, proc::CacheBudget* budget) {
            if (cache_pages > 0) {
              db->disk->EnableBufferCache(cache_pages);
            }
            return proc::MakeStrategy(strategy, db->catalog.get(),
                                      db->executor.get(), &db->meter, params,
                                      budget);
          },
          options);
      if (!run.ok()) {
        std::cerr << run.status().ToString() << "\n";
        return 1;
      }
      row.push_back(
          TablePrinter::FormatDouble(run.ValueOrDie().avg_ms_per_query, 1));
      report.AddScalar("ms_cache_" + std::to_string(cache_pages) + "_" +
                           std::string(1, bench::WinnerCode(strategy)),
                       run.ValueOrDie().avg_ms_per_query);
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nEven a handful of frames (hot index levels) narrows the "
               "AR-vs-cached gap; the paper's no-cache assumption maximizes "
               "the benefit of result caching.\n";
  return report.Write() ? 0 : 1;
}
