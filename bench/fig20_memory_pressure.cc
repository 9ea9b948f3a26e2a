// Figure 20 (extension): serving latency and throughput under cache-memory
// pressure.  The paper assumes every cached procedure result stays resident;
// this bench shrinks the engine's cache budget to 50%/25%/10% of the
// workload's resident footprint and measures what eviction does to a
// multi-session serving run.  Evicted entries degrade to Always-Recompute
// behavior (eviction is not invalidation — answers never change, the
// quiesce-time oracle sweep inside SessionPool::Run re-proves it per level),
// so the latency tail grows while correctness holds.
//
// Every serving access runs all six strategies and checks that they agree,
// so the p50/p99 "access latency" is one access's metered cost summed over
// all six strategies, not the cost of serving it with a single strategy.
//
// Deterministic barrier-stepped mode keeps the merged schedule, the cost
// meter and the access-cost histogram pure functions of the seed, so the
// emitted figures are bit-stable and golden-gated like the analytic benches.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "concurrent/session_pool.h"
#include "obs/metrics.h"

namespace {

using namespace procsim;

/// Linear-interpolated percentile over a histogram snapshot (bucket-resolution
/// estimate; exact enough for a tail-latency figure and deterministic given a
/// deterministic run).
double Percentile(const obs::Histogram::Snapshot& histogram, double q) {
  if (histogram.count == 0) return 0.0;
  const double target = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const uint64_t in_bucket = histogram.counts[i];
    if (in_bucket > 0 &&
        static_cast<double>(cumulative + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : histogram.bounds[i - 1];
      // Overflow bucket has no upper bound; extend it by the last bound so
      // the interpolation stays finite.
      const double hi = i < histogram.bounds.size()
                            ? histogram.bounds[i]
                            : histogram.bounds.back() * 2;
      const double frac = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

struct LevelResult {
  std::string label;
  std::size_t budget_bytes = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double throughput = 0;  ///< accesses per simulated second
  uint64_t evictions = 0;
  std::size_t accounted_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("fig20_memory_pressure", argc, argv);

  concurrent::SessionPool::Options options;
  options.engine.params.N = 200;
  options.engine.params.f_R2 = 0.1;
  options.engine.params.f_R3 = 0.1;
  options.engine.params.l = 3;
  options.engine.params.N1 = 6;
  options.engine.params.N2 = 6;
  options.engine.params.SF = 0.5;
  options.engine.params.f = 0.08;
  options.engine.params.f2 = 0.3;
  options.engine.seed = 20;
  options.sessions = report.quick() ? 3 : 8;
  options.ops_per_session = report.quick() ? 12 : 64;
  options.engine.mix.update_batch =
      static_cast<std::size_t>(options.engine.params.l);
  options.deterministic = true;

  bench::PrintHeader("Figure 20",
                     "serving under memory pressure (deterministic "
                     "multi-session run, budget as % of resident footprint)",
                     options.engine.params);

  auto run_level = [&](const std::string& label, std::size_t budget_bytes,
                       LevelResult* out) -> int {
    // Each level gets a fresh metric window so the latency histogram and
    // eviction counters describe this level alone.
    obs::GlobalMetrics().ResetAll();
    options.engine.config.cache_budget_bytes = budget_bytes;
    Result<concurrent::SessionPool::RunResult> run =
        concurrent::SessionPool::Run(options);
    if (!run.ok()) {
      std::cerr << label << ": " << run.status().ToString() << "\n";
      return 1;
    }
    const concurrent::SessionPool::RunResult& result = run.ValueOrDie();
    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().TakeSnapshot();
    const auto histogram =
        snapshot.histograms.find("concurrent.session.access_cost_ms");
    if (histogram == snapshot.histograms.end() ||
        histogram->second.count != result.accesses) {
      std::cerr << label << ": access-cost histogram missing or short\n";
      return 1;
    }
    out->label = label;
    out->budget_bytes = budget_bytes;
    out->p50_ms = Percentile(histogram->second, 0.50);
    out->p99_ms = Percentile(histogram->second, 0.99);
    out->throughput = result.total_cost_ms > 0
                          ? static_cast<double>(result.accesses) /
                                result.total_cost_ms * 1000.0
                          : 0.0;
    out->evictions = result.budget_evictions;
    out->accounted_bytes = result.budget_accounted_bytes;
    return 0;
  };

  // Level 0: unlimited budget establishes the resident footprint the
  // pressure levels are derived from.
  LevelResult unlimited;
  if (run_level("unlimited", 0, &unlimited) != 0) return 1;
  if (unlimited.evictions != 0) {
    std::cerr << "unlimited budget must never evict\n";
    return 1;
  }
  const std::size_t footprint = unlimited.accounted_bytes;
  if (footprint == 0) {
    std::cerr << "resident footprint is zero; nothing to pressure\n";
    return 1;
  }

  std::vector<LevelResult> levels{unlimited};
  for (const auto& [suffix, pct] :
       std::vector<std::pair<std::string, std::size_t>>{
           {"b50", 50}, {"b25", 25}, {"b10", 10}}) {
    LevelResult level;
    if (run_level(suffix, footprint * pct / 100, &level) != 0) return 1;
    levels.push_back(level);
  }
  if (levels.back().evictions == 0) {
    std::cerr << "10% budget produced no evictions; the pressure sweep is "
                 "vacuous\n";
    return 1;
  }

  TablePrinter table({"budget", "bytes", "p50 ms", "p99 ms", "access/s",
                      "evictions", "resident"});
  for (const LevelResult& level : levels) {
    table.AddRow({level.label, std::to_string(level.budget_bytes),
                  TablePrinter::FormatDouble(level.p50_ms, 2),
                  TablePrinter::FormatDouble(level.p99_ms, 2),
                  TablePrinter::FormatDouble(level.throughput, 2),
                  std::to_string(level.evictions),
                  std::to_string(level.accounted_bytes)});
    report.AddScalar("p50_ms_" + level.label, level.p50_ms);
    report.AddScalar("p99_ms_" + level.label, level.p99_ms);
    report.AddScalar("throughput_" + level.label, level.throughput);
    report.AddScalar("evictions_" + level.label,
                     static_cast<double>(level.evictions));
    report.AddScalar("resident_bytes_" + level.label,
                     static_cast<double>(level.accounted_bytes));
  }
  table.Print(std::cout);
  std::cout << "\nEvicted results reload on next access (Always-Recompute "
               "behavior for the evicted slot), so the tail stretches as the "
               "budget shrinks while every answer stays oracle-identical.\n";
  report.AddScalar("resident_footprint_bytes",
                   static_cast<double>(footprint));
  return report.Write() ? 0 : 1;
}
