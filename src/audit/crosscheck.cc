#include "audit/crosscheck.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "audit/validate.h"
#include "util/logging.h"
#include "util/rng.h"

namespace procsim::audit {
namespace {

using sim::WorkloadOp;

/// Holds `digest`, the answer all six strategies agreed on for access
/// `access_id`, against the un-metered from-scratch oracle.
Status CheckAgainstOracle(txn::TxnEngine& engine, uint64_t access_id,
                          const std::string& digest,
                          CrossCheckReport* report) {
  sim::Database* db = engine.database();
  const auto id =
      static_cast<proc::ProcId>(access_id % db->procedures.size());
  Result<std::string> oracle = sim::OracleResultBytes(db, id);
  PROCSIM_RETURN_IF_ERROR(oracle.status());
  if (digest != oracle.ValueOrDie()) {
    return Status::Internal("the strategies agree on " +
                            db->procedures[id].name +
                            " but diverge from the from-scratch oracle");
  }
  report->comparisons += engine.strategies().all.size();
  return Status::OK();
}

/// After a committed update transaction: applies the pending commit group,
/// compares a (sampled or full) set of procedures across all strategies
/// against the oracle in one read-only transaction, then validates the
/// engine.  A failure ends the run, and the engine with it, so the
/// transaction is left open.
Status CompareBatch(txn::TxnEngine& engine, const CrossCheckOptions& options,
                    Rng* sampler, CrossCheckReport* report) {
  PROCSIM_RETURN_IF_ERROR(engine.Flush());
  const std::size_t total = engine.procedure_count();
  const bool sampled =
      options.compare_sample > 0 && options.compare_sample < total;
  const txn::TxnId txn = engine.Begin();
  for (std::size_t i = 0; i < (sampled ? options.compare_sample : total);
       ++i) {
    const uint64_t id = sampled ? sampler->Uniform(total) : i;
    Result<std::string> digest = engine.Access(txn, id);
    PROCSIM_RETURN_IF_ERROR(digest.status());
    PROCSIM_RETURN_IF_ERROR(
        CheckAgainstOracle(engine, id, digest.ValueOrDie(), report));
  }
  PROCSIM_RETURN_IF_ERROR(engine.Commit(txn));
  return options.validate_structures ? ValidateEngine(engine) : Status::OK();
}

}  // namespace

std::vector<WorkloadOp> GenerateOpStream(const CrossCheckOptions& options) {
  const auto proc_count = static_cast<std::size_t>(options.engine.params.N1) +
                          static_cast<std::size_t>(options.engine.params.N2);
  // A separate stream from the builder's so the database contents stay
  // fixed for a given seed regardless of `steps`.
  sim::Workload workload(options.engine.mix,
                         std::max<std::size_t>(1, proc_count),
                         options.engine.seed + 1000003);
  return workload.Take(options.steps);
}

Result<CrossCheckReport> RunOpStream(
    const CrossCheckOptions& options, const std::vector<WorkloadOp>& ops,
    std::vector<std::string>* access_digests) {
  Result<std::unique_ptr<txn::TxnEngine>> created =
      txn::TxnEngine::Create(options.engine);
  if (!created.ok()) return created.status();
  txn::TxnEngine& engine = *created.ValueOrDie();

  // Run-local stream for CompareBatch sampling only — op randomness lives
  // in the ops themselves.
  Rng sampler(options.engine.seed + 2000003);
  CrossCheckReport report;
  const auto observe = [&](const txn::TxnEngine::RunEvent& event) -> Status {
    if (event.access != nullptr) {
      ++report.accesses;
      PROCSIM_RETURN_IF_ERROR(CheckAgainstOracle(engine, event.access->value,
                                                 event.digest, &report));
      if (access_digests != nullptr) access_digests->push_back(event.digest);
      return Status::OK();
    }
    if (event.committed.empty()) return Status::OK();  // read-only
    for (const WorkloadOp& op : event.committed) {
      switch (op.kind) {
        case WorkloadOp::Kind::kInsert:
          ++report.base_inserts;
          break;
        case WorkloadOp::Kind::kDelete:
          ++report.base_deletes;
          break;
        default:  // kUpdate, kSilentUpdate
          ++report.update_transactions;
          break;
      }
    }
    return CompareBatch(engine, options, &sampler, &report);
  };
  PROCSIM_RETURN_IF_ERROR(engine.Run(ops, observe));
  report.steps = ops.size();
  report.cache_evictions = engine.strategies().budget->eviction_count();
  return report;
}

Result<CrossCheckReport> CrossCheck(const CrossCheckOptions& options) {
  return RunOpStream(options, GenerateOpStream(options));
}

}  // namespace procsim::audit
