#include "sim/simulator.h"

#include <algorithm>

#include "ivm/delta.h"
#include "obs/metrics.h"
#include "proc/cache_invalidate.h"
#include "proc/hybrid.h"
#include "proc/update_cache_avm.h"
#include "proc/update_cache_rvm.h"
#include "util/logging.h"

namespace procsim::sim {
namespace {

obs::Counter* const g_runs =
    obs::GlobalMetrics().RegisterCounter("sim.simulator.runs");
obs::Histogram* const g_access_cost = obs::GlobalMetrics().RegisterHistogram(
    "sim.access.cost_ms", obs::DefaultCostBuckets());
obs::Histogram* const g_update_cost = obs::GlobalMetrics().RegisterHistogram(
    "sim.update.cost_ms", obs::DefaultCostBuckets());

}  // namespace

using cost::Strategy;

Result<StrategySet> MakeAllStrategies(Database* db,
                                      const cost::Params& params,
                                      cost::ProcModel model,
                                      const proc::EngineConfig& config) {
  PROCSIM_CHECK(db != nullptr);
  if (db->procedures.empty()) {
    return Status::InvalidArgument(
        "the database has no procedures (N1 + N2 = 0)");
  }
  StrategySet set;
  set.budget = std::make_unique<proc::CacheBudget>(config.cache_budget_bytes);
  proc::CacheBudget* const budget = set.budget.get();
  for (Strategy kind : cost::kAllStrategies) {
    set.all.push_back(proc::MakeStrategy(kind, db->catalog.get(),
                                         db->executor.get(), &db->meter,
                                         params, budget));
  }
  set.cache_invalidate =
      static_cast<proc::CacheInvalidateStrategy*>(set.all[1].get());
  set.rvm = static_cast<proc::UpdateCacheRvmStrategy*>(set.all[3].get());
  set.all.push_back(std::make_unique<proc::HybridStrategy>(
      db->catalog.get(), db->executor.get(), &db->meter, params, model,
      budget));
  // Adaptive: AVM with both §8 invalidation thresholds finite.
  set.all.push_back(std::make_unique<proc::UpdateCacheAvmStrategy>(
      db->catalog.get(), db->executor.get(), &db->meter,
      static_cast<std::size_t>(params.S), budget, /*patch_fraction=*/0.25,
      /*max_unread_patches=*/4));

  for (const std::unique_ptr<proc::Strategy>& strategy : set.all) {
    for (const proc::DatabaseProcedure& procedure : db->procedures) {
      PROCSIM_RETURN_IF_ERROR(strategy->AddProcedure(procedure));
    }
    PROCSIM_RETURN_IF_ERROR(strategy->Prepare());
  }
  return set;
}

Status ApplyTransaction(Database* db, const std::vector<WorkloadOp>& ops,
                        const WorkloadMix& mix, Rng* inline_rng,
                        std::span<proc::Strategy* const> strategies) {
  ivm::ChangeBatch changes;
  bool notified = false;
  for (const WorkloadOp& op : ops) {
    Result<MutationResult> mutation =
        ApplyMutationOp(db, op, mix, inline_rng);
    if (!mutation.ok()) return mutation.status();
    const MutationResult& applied = mutation.ValueOrDie();
    if (!applied.applied || !applied.notify) continue;
    for (const auto& [old_tuple, new_tuple] : applied.changes) {
      if (old_tuple.has_value()) changes.AddDelete(*old_tuple);
      if (new_tuple.has_value()) changes.AddInsert(*new_tuple);
    }
    notified = true;
  }
  if (!changes.empty()) {
    for (proc::Strategy* strategy : strategies) {
      strategy->OnBatch("R1", changes);
    }
  }
  if (notified) {
    for (proc::Strategy* strategy : strategies) {
      PROCSIM_RETURN_IF_ERROR(strategy->OnTransactionEnd());
    }
  }
  return Status::OK();
}

Result<SimulationResult> Simulator::Run(Strategy strategy_kind,
                                        const Options& options) {
  return RunWithFactory(
      [&](Database* db, proc::CacheBudget* budget) {
        return proc::MakeStrategy(strategy_kind, db->catalog.get(),
                                  db->executor.get(), &db->meter,
                                  options.params, budget);
      },
      options);
}

Result<SimulationResult> Simulator::RunWithFactory(
    const StrategyFactory& factory, const Options& options) {
  Result<std::unique_ptr<Database>> built =
      BuildDatabase(options.params, options.model, options.seed);
  if (!built.ok()) return built.status();
  std::unique_ptr<Database> db = built.TakeValueOrDie();

  // Unlimited: the paper's model has no memory limit.  Declared before the
  // strategy, so it outlives it.
  proc::CacheBudget budget(0);
  std::unique_ptr<proc::Strategy> strategy = factory(db.get(), &budget);
  for (const proc::DatabaseProcedure& procedure : db->procedures) {
    PROCSIM_RETURN_IF_ERROR(strategy->AddProcedure(procedure));
  }
  PROCSIM_RETURN_IF_ERROR(strategy->Prepare());
  proc::Strategy* const target = strategy.get();

  const auto k = static_cast<uint64_t>(options.params.k);
  const auto q = static_cast<uint64_t>(options.params.q);

  // Build the randomly interleaved operation schedule (k updates, q reads).
  // Workload randomness is drawn from a separate stream (seed+1) so the
  // database contents (seed) stay identical across parameter sweeps of k.
  // The ops are in inline-RNG mode: each update consumes `rng` in place,
  // exactly as the pre-Workload scheduling loop did.
  Rng rng(options.seed + 1);
  const std::vector<WorkloadOp> schedule = Workload::ExactSchedule(k, q, &rng);
  WorkloadMix mix;
  mix.update_batch = static_cast<std::size_t>(options.params.l);

  LocalityGenerator locality(std::max<std::size_t>(1, db->procedures.size()),
                             options.params.Z);

  db->meter.Reset();
  g_runs->Add();
  SimulationResult result;
  for (const WorkloadOp& op : schedule) {
    if (IsTxnMarker(op.kind)) {
      // The single-user simulator applies every update atomically already;
      // explicit transaction boundaries are scheduling no-ops here (they
      // matter to the txn engine and the crash harness).
      continue;
    }
    if (op.kind == WorkloadOp::Kind::kUpdate) {
      const double before_ms = db->meter.total_ms();
      PROCSIM_RETURN_IF_ERROR(
          ApplyTransaction(db.get(), {op}, mix, &rng, {&target, 1}));
      ++result.update_transactions;
      g_update_cost->Observe(db->meter.total_ms() - before_ms);
    } else {
      const double before_ms = db->meter.total_ms();
      const std::size_t proc_id = locality.NextReference(&rng);
      Result<std::vector<rel::Tuple>> value = strategy->Access(proc_id);
      if (!value.ok()) return value.status();
      ++result.queries;
      g_access_cost->Observe(db->meter.total_ms() - before_ms);
      if (options.verify_results) {
        Result<std::string> expected = OracleResultBytes(db.get(), proc_id);
        if (!expected.ok()) return expected.status();
        if (CanonicalResultBytes(value.ValueOrDie()) != expected.ValueOrDie()) {
          ++result.verification_failures;
        }
      }
    }
  }

  result.total_ms = db->meter.total_ms();
  result.avg_ms_per_query =
      result.queries > 0 ? result.total_ms / static_cast<double>(result.queries)
                         : 0.0;
  result.disk_reads = db->meter.disk_reads();
  result.disk_writes = db->meter.disk_writes();
  result.screens = db->meter.screens();
  return result;
}

}  // namespace procsim::sim
