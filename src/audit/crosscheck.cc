#include "audit/crosscheck.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/validate.h"
#include "proc/strategy.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "util/logging.h"
#include "util/rng.h"

namespace procsim::audit {
namespace {

using rel::Tuple;
using sim::WorkloadOp;

/// Human-readable divergence between an oracle bag and a strategy's answer
/// whose canonical forms differ.
std::string DescribeDifference(std::size_t expected_rows,
                               std::size_t actual_rows) {
  if (expected_rows != actual_rows) {
    return "cardinality " + std::to_string(actual_rows) + " vs expected " +
           std::to_string(expected_rows);
  }
  return "same cardinality, different serialized tuples";
}

struct Harness {
  std::unique_ptr<sim::Database> db;
  sim::StrategySet strategies;
};

Result<Harness> BuildHarness(const CrossCheckOptions& options) {
  Harness harness;
  Result<std::unique_ptr<sim::Database>> built =
      sim::BuildDatabase(options.params, options.model, options.seed);
  if (!built.ok()) return built.status();
  harness.db = built.TakeValueOrDie();
  Result<sim::StrategySet> strategies = sim::MakeAllStrategies(
      harness.db.get(), options.params, options.model, options.engine);
  if (!strategies.ok()) return strategies.status();
  harness.strategies = strategies.TakeValueOrDie();
  return harness;
}

/// Compares every strategy's answer for procedure `id` byte-for-byte
/// against the un-metered from-scratch oracle.  If `digest` is non-null it
/// receives the oracle's canonical result bytes.
Status CompareProcedure(Harness* harness, proc::ProcId id,
                        CrossCheckReport* report,
                        std::string* digest = nullptr) {
  sim::Database* db = harness->db.get();
  std::size_t expected_rows = 0;
  Result<std::string> oracle = sim::OracleResultBytes(db, id, &expected_rows);
  PROCSIM_RETURN_IF_ERROR(oracle.status());
  const std::string& expected = oracle.ValueOrDie();
  if (digest != nullptr) *digest = expected;
  for (const std::unique_ptr<proc::Strategy>& strategy :
       harness->strategies.all) {
    Result<std::vector<Tuple>> answer = strategy->Access(id);
    if (!answer.ok()) {
      return Status::Internal(strategy->name() + " failed accessing " +
                              db->procedures[id].name + ": " +
                              answer.status().ToString());
    }
    if (sim::CanonicalResultBytes(answer.ValueOrDie()) != expected) {
      return Status::Internal(
          strategy->name() + " diverged on " + db->procedures[id].name +
          ": " +
          DescribeDifference(expected_rows, answer.ValueOrDie().size()));
    }
    ++report->comparisons;
  }
  return Status::OK();
}

/// Compares a (sampled or full) set of procedures after an update batch.
Status CompareBatch(Harness* harness, const CrossCheckOptions& options,
                    Rng* rng, CrossCheckReport* report) {
  const std::size_t total = harness->db->procedures.size();
  if (total == 0) return Status::OK();
  if (options.compare_sample == 0 || options.compare_sample >= total) {
    for (proc::ProcId id = 0; id < total; ++id) {
      PROCSIM_RETURN_IF_ERROR(CompareProcedure(harness, id, report));
    }
  } else {
    for (std::size_t i = 0; i < options.compare_sample; ++i) {
      PROCSIM_RETURN_IF_ERROR(
          CompareProcedure(harness, rng->Uniform(total), report));
    }
  }
  if (options.validate_structures) {
    PROCSIM_RETURN_IF_ERROR(
        ValidateStructures(*harness->db, harness->strategies));
  }
  return Status::OK();
}

sim::WorkloadMix MixFromOptions(const CrossCheckOptions& options) {
  sim::WorkloadMix mix;
  mix.update_weight = options.update_weight;
  mix.insert_weight = options.insert_weight;
  mix.delete_weight = options.delete_weight;
  mix.update_batch = static_cast<std::size_t>(options.params.l);
  mix.min_r1_tuples = options.min_r1_tuples;
  return mix;
}

}  // namespace

std::vector<WorkloadOp> GenerateOpStream(const CrossCheckOptions& options) {
  const auto proc_count = static_cast<std::size_t>(options.params.N1) +
                          static_cast<std::size_t>(options.params.N2);
  // A separate stream from the builder's so the database contents stay
  // fixed for a given seed regardless of `steps`.
  sim::Workload workload(MixFromOptions(options),
                         std::max<std::size_t>(1, proc_count),
                         options.seed + 1000003);
  return workload.Take(options.steps);
}

Result<CrossCheckReport> RunOpStream(
    const CrossCheckOptions& options, const std::vector<WorkloadOp>& ops,
    std::vector<std::string>* access_digests) {
  Result<Harness> built = BuildHarness(options);
  if (!built.ok()) return built.status();
  Harness harness = built.TakeValueOrDie();
  sim::Database* db = harness.db.get();
  const sim::WorkloadMix mix = MixFromOptions(options);

  // Run-local stream for CompareBatch sampling only — op randomness lives
  // in the ops themselves.
  Rng rng(options.seed + 2000003);
  CrossCheckReport report;

  const auto count_mutation = [&report](WorkloadOp::Kind kind) {
    switch (kind) {
      case WorkloadOp::Kind::kUpdate:
      case WorkloadOp::Kind::kSilentUpdate:
        ++report.update_transactions;
        break;
      case WorkloadOp::Kind::kInsert:
        ++report.base_inserts;
        break;
      case WorkloadOp::Kind::kDelete:
        ++report.base_deletes;
        break;
      default:
        break;
    }
  };
  std::vector<proc::Strategy*> strategies;
  for (const std::unique_ptr<proc::Strategy>& strategy :
       harness.strategies.all) {
    strategies.push_back(strategy.get());
  }
  // Applies a batch of mutation ops atomically (the marker-pair semantics
  // of sim::WorkloadOp; a bare mutation is a batch of one).
  const auto apply_batch = [&](const std::vector<WorkloadOp>& batch,
                               bool* any_applied) -> Status {
    Result<sim::AppliedTransaction> txn =
        sim::ApplyTransaction(db, batch, mix, &rng, strategies);
    PROCSIM_RETURN_IF_ERROR(txn.status());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!txn.ValueOrDie().applied[i]) continue;  // e.g. a minimum table
      *any_applied = true;
      count_mutation(batch[i].kind);
    }
    return Status::OK();
  };

  bool in_txn = false;
  std::vector<WorkloadOp> txn_ops;
  for (const WorkloadOp& op : ops) {
    ++report.steps;
    if (op.kind == WorkloadOp::Kind::kBegin) {
      if (in_txn) {
        return Status::InvalidArgument(
            "nested kBegin at step " + std::to_string(report.steps));
      }
      in_txn = true;
      txn_ops.clear();
      continue;
    }
    if (op.kind == WorkloadOp::Kind::kCommit ||
        op.kind == WorkloadOp::Kind::kAbort) {
      if (!in_txn) {
        return Status::InvalidArgument(
            std::string(sim::WorkloadOpKindName(op.kind)) +
            " without an open transaction at step " +
            std::to_string(report.steps));
      }
      in_txn = false;
      if (op.kind == WorkloadOp::Kind::kAbort) {
        txn_ops.clear();  // an aborted transaction applies not at all
        continue;
      }
      bool any_applied = false;
      PROCSIM_RETURN_IF_ERROR(apply_batch(txn_ops, &any_applied));
      txn_ops.clear();
      if (any_applied) {
        PROCSIM_RETURN_IF_ERROR(
            CompareBatch(&harness, options, &rng, &report));
      }
      continue;
    }
    if (op.kind == WorkloadOp::Kind::kAccess) {
      const proc::ProcId id =
          static_cast<proc::ProcId>(op.value) % db->procedures.size();
      std::string digest;
      PROCSIM_RETURN_IF_ERROR(CompareProcedure(
          &harness, id, &report,
          access_digests != nullptr ? &digest : nullptr));
      if (access_digests != nullptr) {
        access_digests->push_back(std::move(digest));
      }
      ++report.accesses;
      continue;
    }
    if (in_txn) {
      // Mutations inside an explicit transaction are buffered until its
      // commit marker — deferred apply, exactly like txn::TxnManager.
      txn_ops.push_back(op);
      continue;
    }
    bool any_applied = false;
    PROCSIM_RETURN_IF_ERROR(apply_batch({op}, &any_applied));
    if (any_applied) {
      PROCSIM_RETURN_IF_ERROR(CompareBatch(&harness, options, &rng, &report));
    }
  }
  // An unterminated transaction at stream end never committed: discard it,
  // exactly as crash recovery discards transactions without a commit record.
  report.cache_evictions = harness.strategies.budget->eviction_count();
  return report;
}

Result<CrossCheckReport> CrossCheck(const CrossCheckOptions& options) {
  return RunOpStream(options, GenerateOpStream(options));
}

}  // namespace procsim::audit
