// Figure 21 (extension): group commit amortizes the WAL force.  The paper's
// C2 charges a disk write per update transaction; with a write-ahead log
// that cost becomes one log force per commit *group*, so batching commits
// divides the dominant constant by the group size while individual commit
// latency stretches (early members of a group wait for the force).  This
// bench drives the transactional engine over one fixed op stream at growing
// group sizes and reports throughput against the p50/p99 commit latency —
// the classic group-commit trade.
//
// Everything is simulated time (the engine's cost meter), so the run is a
// pure function of the seed and the figures are golden-gated bit-for-bit.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "audit/crash.h"
#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "sim/workload.h"
#include "txn/engine.h"

namespace {

using namespace procsim;

/// Linear-interpolated percentile over a histogram snapshot (same estimator
/// as fig20's; bucket resolution, deterministic given a deterministic run).
double Percentile(const obs::Histogram::Snapshot& histogram, double q) {
  if (histogram.count == 0) return 0.0;
  const double target = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const uint64_t in_bucket = histogram.counts[i];
    if (in_bucket > 0 &&
        static_cast<double>(cumulative + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : histogram.bounds[i - 1];
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

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

struct LevelResult {
  std::size_t group_size = 0;
  uint64_t commits = 0;
  uint64_t forces = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double total_ms = 0;
  double throughput = 0;  ///< committed transactions per simulated second
};

}  // namespace

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("fig21_group_commit", argc, argv);

  txn::TxnEngine::Options options;
  options.params.N = 200;
  options.params.f_R2 = 0.1;
  options.params.f_R3 = 0.1;
  options.params.l = 3;
  options.params.N1 = 6;
  options.params.N2 = 6;
  options.params.SF = 0.5;
  options.params.f = 0.08;
  options.params.f2 = 0.3;
  options.seed = 21;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  // The paper's C2: the per-transaction disk-write constant, paid here as
  // the cost of one WAL force.
  options.config.wal_force_cost_ms = 30.0;

  bench::PrintHeader("Figure 21",
                     "group commit amortizes the WAL force (one fixed "
                     "transactional stream, growing commit-group sizes)",
                     options.params);

  // One fixed transactional stream shared by every level: explicit
  // kBegin/kCommit transactions around mutation runs, accesses interleaved.
  const std::size_t op_count = report.quick() ? 24 : 120;
  sim::Workload workload(
      options.mix,
      static_cast<std::size_t>(options.params.N1 + options.params.N2),
      options.seed);
  audit::TxnWrapOptions wrap;
  wrap.seed = options.seed ^ 0x9e3779b97f4a7c15ull;
  wrap.abort_probability = 0.0;  // the figure is about commits only
  const std::vector<sim::WorkloadOp> ops =
      audit::WrapInTransactions(workload.Take(op_count), wrap);

  const std::vector<std::size_t> group_sizes =
      report.quick() ? std::vector<std::size_t>{1, 4}
                     : std::vector<std::size_t>{1, 2, 4, 8, 16};

  std::vector<LevelResult> levels;
  for (const std::size_t group : group_sizes) {
    // A fresh metric window per level so the latency histogram and the
    // force counter describe this group size alone.
    obs::GlobalMetrics().ResetAll();
    options.config.group_commit_size = group;
    Result<std::unique_ptr<txn::TxnEngine>> built =
        txn::TxnEngine::Create(options);
    if (!built.ok()) {
      std::cerr << "group " << group << ": " << built.status().ToString()
                << "\n";
      return 1;
    }
    txn::TxnEngine& engine = *built.ValueOrDie();
    if (Status run = engine.Run(ops); !run.ok()) {
      std::cerr << "group " << group << ": " << run.ToString() << "\n";
      return 1;
    }
    if (Status flush = engine.Flush(); !flush.ok()) {
      std::cerr << "group " << group << ": " << flush.ToString() << "\n";
      return 1;
    }
    if (Status oracle = engine.CompareAllAgainstOracle(); !oracle.ok()) {
      std::cerr << "group " << group << ": " << oracle.ToString() << "\n";
      return 1;
    }

    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().TakeSnapshot();
    const auto histogram = snapshot.histograms.find("txn.commit.latency_ms");
    LevelResult level;
    level.group_size = group;
    level.commits = CounterValue(snapshot, "txn.manager.commits");
    level.forces = CounterValue(snapshot, "wal.log.forces");
    if (histogram == snapshot.histograms.end() ||
        histogram->second.count != level.commits) {
      std::cerr << "group " << group
                << ": commit-latency histogram missing or short\n";
      return 1;
    }
    level.p50_ms = Percentile(histogram->second, 0.50);
    level.p99_ms = Percentile(histogram->second, 0.99);
    level.total_ms = engine.database()->meter.total_ms();
    level.throughput = level.total_ms > 0
                           ? static_cast<double>(level.commits) /
                                 level.total_ms * 1000.0
                           : 0.0;
    levels.push_back(level);
  }

  // Sanity: the stream is fixed, so every level commits the same
  // transactions; bigger groups must force the log no more often.
  for (const LevelResult& level : levels) {
    if (level.commits != levels.front().commits) {
      std::cerr << "commit counts diverge across group sizes\n";
      return 1;
    }
    if (level.commits == 0) {
      std::cerr << "no transactions committed; the sweep is vacuous\n";
      return 1;
    }
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i].forces > levels[i - 1].forces) {
      std::cerr << "larger commit groups forced the log MORE often\n";
      return 1;
    }
  }
  if (levels.back().throughput <= levels.front().throughput) {
    std::cerr << "group commit failed to raise throughput — the force cost "
                 "is not being amortized\n";
    return 1;
  }

  TablePrinter table({"group", "commits", "forces", "p50 ms", "p99 ms",
                      "total ms", "txn/s"});
  for (const LevelResult& level : levels) {
    std::string label = "g";
    label += std::to_string(level.group_size);
    table.AddRow({std::to_string(level.group_size),
                  std::to_string(level.commits),
                  std::to_string(level.forces),
                  TablePrinter::FormatDouble(level.p50_ms, 2),
                  TablePrinter::FormatDouble(level.p99_ms, 2),
                  TablePrinter::FormatDouble(level.total_ms, 2),
                  TablePrinter::FormatDouble(level.throughput, 2)});
    report.AddScalar("commits_" + label, static_cast<double>(level.commits));
    report.AddScalar("forces_" + label, static_cast<double>(level.forces));
    report.AddScalar("p50_ms_" + label, level.p50_ms);
    report.AddScalar("p99_ms_" + label, level.p99_ms);
    report.AddScalar("throughput_" + label, level.throughput);
  }
  table.Print(std::cout);
  std::cout << "\nOne log force per commit group: throughput climbs as the "
               "per-transaction share of the force cost shrinks, while the "
               "p99 commit latency stretches — early group members wait for "
               "the batch to fill before their commit becomes durable.\n";
  return report.Write() ? 0 : 1;
}
