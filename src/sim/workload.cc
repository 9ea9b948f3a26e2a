#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::sim {

using proc::DatabaseProcedure;
using rel::Column;
using rel::Conjunction;
using rel::PredicateTerm;
using rel::ProcedureQuery;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

namespace {

Conjunction IntervalConjunction(std::size_t column, int64_t lo, int64_t hi) {
  return Conjunction({
      PredicateTerm{column, rel::CompareOp::kGe, Value(lo)},
      PredicateTerm{column, rel::CompareOp::kLe, Value(hi)},
  });
}

obs::Counter* const g_update_transactions =
    obs::GlobalMetrics().RegisterCounter("sim.workload.update_transactions");
obs::Counter* const g_tuples_updated =
    obs::GlobalMetrics().RegisterCounter("sim.workload.tuples_updated");
obs::Counter* const g_inserts =
    obs::GlobalMetrics().RegisterCounter("sim.workload.inserts");
obs::Counter* const g_deletes =
    obs::GlobalMetrics().RegisterCounter("sim.workload.deletes");

}  // namespace

Result<std::unique_ptr<Database>> BuildDatabase(const cost::Params& params,
                                                cost::ProcModel model,
                                                uint64_t seed) {
  auto db = std::make_unique<Database>();
  db->disk = std::make_unique<storage::SimulatedDisk>(
      static_cast<uint32_t>(params.B), &db->meter);
  db->catalog = std::make_unique<rel::Catalog>(db->disk.get());
  db->executor =
      std::make_unique<rel::Executor>(db->catalog.get(), &db->meter);
  db->r1_keys = static_cast<int64_t>(params.N);
  db->r2_count = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(params.f_R2 * params.N)));
  db->r3_count = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(params.f_R3 * params.N)));

  storage::MeteringGuard guard(db->disk.get());
  Rng rng(seed);

  // --- R1: clustered B-tree on the selection key --------------------------
  Schema r1_schema({Column{"key", ValueType::kInt64},
                    Column{"a", ValueType::kInt64},
                    Column{"payload", ValueType::kInt64}});
  rel::Relation::Options r1_options;
  r1_options.tuple_width_bytes = static_cast<std::size_t>(params.S);
  r1_options.btree_column = R1Columns::kKey;
  r1_options.expected_tuples = static_cast<std::size_t>(params.N);
  r1_options.index_entry_bytes = static_cast<uint32_t>(params.d);
  Result<rel::Relation*> r1 =
      db->catalog->CreateRelation("R1", r1_schema, r1_options);
  if (!r1.ok()) return r1.status();
  db->r1_rids.reserve(static_cast<std::size_t>(params.N));
  for (int64_t i = 0; i < db->r1_keys; ++i) {
    // Bulk load in key order so the heap is clustered on the B-tree key,
    // as the paper's ceil(f*b)-pages-per-selection cost assumes.
    Tuple tuple({Value(i),
                 Value(static_cast<int64_t>(rng.Uniform(
                     static_cast<uint64_t>(db->r2_count)))),
                 Value(static_cast<int64_t>(rng.Next() & 0x7fffffff))});
    Result<storage::RecordId> rid = r1.ValueOrDie()->Insert(tuple);
    if (!rid.ok()) return rid.status();
    db->r1_rids.push_back(rid.ValueOrDie());
  }

  // --- R2: hashed primary on b --------------------------------------------
  Schema r2_schema({Column{"b", ValueType::kInt64},
                    Column{"c", ValueType::kInt64},
                    Column{"sel2", ValueType::kInt64}});
  rel::Relation::Options r2_options;
  r2_options.tuple_width_bytes = static_cast<std::size_t>(params.S);
  r2_options.hash_column = R2Columns::kB;
  r2_options.expected_tuples = static_cast<std::size_t>(db->r2_count);
  r2_options.index_entry_bytes = static_cast<uint32_t>(params.d);
  Result<rel::Relation*> r2 =
      db->catalog->CreateRelation("R2", r2_schema, r2_options);
  if (!r2.ok()) return r2.status();
  for (int64_t i = 0; i < db->r2_count; ++i) {
    Tuple tuple({Value(i),
                 Value(static_cast<int64_t>(rng.Uniform(
                     static_cast<uint64_t>(db->r3_count)))),
                 Value(static_cast<int64_t>(
                     rng.Uniform(kSelectivityDomain)))});
    Result<storage::RecordId> rid = r2.ValueOrDie()->Insert(tuple);
    if (!rid.ok()) return rid.status();
  }

  // --- R3: hashed primary on d --------------------------------------------
  Schema r3_schema({Column{"d", ValueType::kInt64},
                    Column{"payload", ValueType::kInt64}});
  rel::Relation::Options r3_options;
  r3_options.tuple_width_bytes = static_cast<std::size_t>(params.S);
  r3_options.hash_column = R3Columns::kD;
  r3_options.expected_tuples = static_cast<std::size_t>(db->r3_count);
  r3_options.index_entry_bytes = static_cast<uint32_t>(params.d);
  Result<rel::Relation*> r3 =
      db->catalog->CreateRelation("R3", r3_schema, r3_options);
  if (!r3.ok()) return r3.status();
  for (int64_t i = 0; i < db->r3_count; ++i) {
    Tuple tuple({Value(i),
                 Value(static_cast<int64_t>(rng.Next() & 0x7fffffff))});
    Result<storage::RecordId> rid = r3.ValueOrDie()->Insert(tuple);
    if (!rid.ok()) return rid.status();
  }

  // --- procedure population ------------------------------------------------
  const int64_t span =
      std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                               params.f * params.N)));
  const int64_t sel2_span = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(params.f2 * kSelectivityDomain)));
  const auto n1 = static_cast<std::size_t>(params.N1);
  const auto n2 = static_cast<std::size_t>(params.N2);

  std::vector<std::pair<int64_t, int64_t>> p1_intervals;
  std::vector<DatabaseProcedure> generated;
  generated.reserve(n1 + n2);
  auto random_interval = [&]() {
    const int64_t start = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(
            std::max<int64_t>(1, db->r1_keys - span + 1))));
    return std::pair<int64_t, int64_t>(start, start + span - 1);
  };

  for (std::size_t i = 0; i < n1; ++i) {
    auto [lo, hi] = random_interval();
    p1_intervals.emplace_back(lo, hi);
    DatabaseProcedure procedure;
    procedure.name = "P1_" + std::to_string(i);
    procedure.query.base =
        rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    generated.push_back(std::move(procedure));
  }
  for (std::size_t i = 0; i < n2; ++i) {
    int64_t lo;
    int64_t hi;
    if (!p1_intervals.empty() && rng.Bernoulli(params.SF)) {
      // Shared subexpression: reuse a P1 procedure's selection verbatim.
      const auto& interval =
          p1_intervals[rng.Uniform(p1_intervals.size())];
      lo = interval.first;
      hi = interval.second;
    } else {
      std::tie(lo, hi) = random_interval();
    }
    DatabaseProcedure procedure;
    procedure.name = "P2_" + std::to_string(i);
    procedure.query.base = rel::BaseSelection{"R1", lo, hi, Conjunction{}};
    const int64_t sel2_start = static_cast<int64_t>(rng.Uniform(
        static_cast<uint64_t>(kSelectivityDomain - sel2_span + 1)));
    rel::JoinStage stage_r2;
    stage_r2.relation = "R2";
    stage_r2.probe_column = R1Columns::kJoinA;
    stage_r2.residual = IntervalConjunction(R2Columns::kSel2, sel2_start,
                                            sel2_start + sel2_span - 1);
    procedure.query.joins.push_back(std::move(stage_r2));
    if (model == cost::ProcModel::kModel2) {
      rel::JoinStage stage_r3;
      stage_r3.relation = "R3";
      // R2's c column within the accumulated (R1 ++ R2) output.
      stage_r3.probe_column =
          r1_schema.num_columns() + R2Columns::kJoinC;
      procedure.query.joins.push_back(std::move(stage_r3));
    }
    generated.push_back(std::move(procedure));
  }

  // Shuffle so the locality-skewed hot prefix mixes P1 and P2 procedures.
  for (std::size_t i = generated.size(); i > 1; --i) {
    std::swap(generated[i - 1], generated[rng.Uniform(i)]);
  }
  for (std::size_t i = 0; i < generated.size(); ++i) generated[i].id = i;
  db->procedures = std::move(generated);
  return db;
}

rel::Tuple RandomR1Tuple(const Database& db, Rng* rng) {
  return Tuple(
      {Value(static_cast<int64_t>(
           rng->Uniform(static_cast<uint64_t>(db.r1_keys)))),
       Value(static_cast<int64_t>(
           rng->Uniform(static_cast<uint64_t>(db.r2_count)))),
       Value(static_cast<int64_t>(rng->Next() & 0x7fffffff))});
}

Result<std::vector<std::pair<Tuple, Tuple>>> ApplyUpdateTransaction(
    Database* db, std::size_t tuples_to_modify, Rng* rng) {
  PROCSIM_CHECK(db != nullptr);
  PROCSIM_CHECK(rng != nullptr);
  Result<rel::Relation*> r1 = db->catalog->GetRelation("R1");
  if (!r1.ok()) return r1.status();

  storage::MeteringGuard guard(db->disk.get());
  std::vector<std::pair<Tuple, Tuple>> changes;
  changes.reserve(tuples_to_modify);
  for (std::size_t i = 0; i < tuples_to_modify; ++i) {
    const storage::RecordId rid =
        db->r1_rids[rng->Uniform(db->r1_rids.size())];
    Result<Tuple> old_tuple = r1.ValueOrDie()->Read(rid);
    if (!old_tuple.ok()) return old_tuple.status();
    Tuple new_tuple = RandomR1Tuple(*db, rng);
    PROCSIM_RETURN_IF_ERROR(r1.ValueOrDie()->UpdateInPlace(rid, new_tuple));
    changes.emplace_back(old_tuple.TakeValueOrDie(), std::move(new_tuple));
  }
  g_update_transactions->Add();
  g_tuples_updated->Add(changes.size());
  return changes;
}

const char* WorkloadOpKindName(WorkloadOp::Kind kind) {
  switch (kind) {
    case WorkloadOp::Kind::kAccess:
      return "kAccess";
    case WorkloadOp::Kind::kUpdate:
      return "kUpdate";
    case WorkloadOp::Kind::kInsert:
      return "kInsert";
    case WorkloadOp::Kind::kDelete:
      return "kDelete";
    case WorkloadOp::Kind::kSilentUpdate:
      return "kSilentUpdate";
    case WorkloadOp::Kind::kBegin:
      return "kBegin";
    case WorkloadOp::Kind::kCommit:
      return "kCommit";
    case WorkloadOp::Kind::kAbort:
      return "kAbort";
  }
  return "k?";
}

Workload::Workload(const WorkloadMix& mix, std::size_t proc_count,
                   uint64_t seed)
    : mix_(mix), proc_count_(proc_count), rng_(seed) {
  PROCSIM_CHECK_GT(proc_count, 0u);
}

uint64_t Workload::NonZeroSeed() {
  const uint64_t seed = rng_.Next();
  return seed != 0 ? seed : 1;
}

WorkloadOp Workload::Next() {
  const double toss = rng_.NextDouble();
  WorkloadOp op;
  if (toss < mix_.update_weight) {
    op.kind = WorkloadOp::Kind::kUpdate;
    op.value = NonZeroSeed();
  } else if (toss < mix_.update_weight + mix_.insert_weight) {
    op.kind = WorkloadOp::Kind::kInsert;
    op.value = NonZeroSeed();
  } else if (toss <
             mix_.update_weight + mix_.insert_weight + mix_.delete_weight) {
    op.kind = WorkloadOp::Kind::kDelete;
    op.value = NonZeroSeed();
  } else {
    op.kind = WorkloadOp::Kind::kAccess;
    op.value = rng_.Uniform(proc_count_);
  }
  return op;
}

std::vector<WorkloadOp> Workload::Take(std::size_t n) {
  std::vector<WorkloadOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ops.push_back(Next());
  return ops;
}

std::vector<WorkloadOp> Workload::ExactSchedule(uint64_t k_updates,
                                                uint64_t q_accesses,
                                                Rng* rng) {
  PROCSIM_CHECK(rng != nullptr);
  std::vector<WorkloadOp> ops;
  ops.reserve(k_updates + q_accesses);
  ops.insert(ops.end(), k_updates,
             WorkloadOp{WorkloadOp::Kind::kUpdate, 0});
  ops.insert(ops.end(), q_accesses,
             WorkloadOp{WorkloadOp::Kind::kAccess, 0});
  // The exact Fisher–Yates the scheduling loop has always used, so a given
  // seed still yields the same interleaving.
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng->Uniform(i)]);
  }
  return ops;
}

Result<MutationResult> ApplyMutationOp(Database* db, const WorkloadOp& op,
                                       const WorkloadMix& mix,
                                       Rng* inline_rng) {
  PROCSIM_CHECK(db != nullptr);
  if (!IsMutationOp(op.kind)) {
    return Status::InvalidArgument(std::string(WorkloadOpKindName(op.kind)) +
                                   " op is not a mutation");
  }
  Rng private_rng(op.value);
  Rng* rng = op.value != 0 ? &private_rng : inline_rng;
  PROCSIM_CHECK(rng != nullptr) << "inline-RNG op needs an inline rng";

  MutationResult result;
  result.notify = op.kind != WorkloadOp::Kind::kSilentUpdate;
  switch (op.kind) {
    case WorkloadOp::Kind::kAccess:
    case WorkloadOp::Kind::kBegin:
    case WorkloadOp::Kind::kCommit:
    case WorkloadOp::Kind::kAbort:
      break;  // rejected above
    case WorkloadOp::Kind::kUpdate:
    case WorkloadOp::Kind::kSilentUpdate: {
      Result<std::vector<std::pair<Tuple, Tuple>>> changes =
          ApplyUpdateTransaction(db, mix.update_batch, rng);
      if (!changes.ok()) return changes.status();
      for (auto& [old_tuple, new_tuple] : changes.ValueOrDie()) {
        result.changes.emplace_back(std::move(old_tuple),
                                    std::move(new_tuple));
      }
      result.applied = true;
      break;
    }
    case WorkloadOp::Kind::kInsert: {
      Result<rel::Relation*> r1 = db->catalog->GetRelation("R1");
      if (!r1.ok()) return r1.status();
      Tuple tuple = RandomR1Tuple(*db, rng);
      {
        storage::MeteringGuard guard(db->disk.get());
        Result<storage::RecordId> rid = r1.ValueOrDie()->Insert(tuple);
        if (!rid.ok()) return rid.status();
        db->r1_rids.push_back(rid.ValueOrDie());
      }
      result.changes.emplace_back(std::nullopt, std::move(tuple));
      result.applied = true;
      g_inserts->Add();
      break;
    }
    case WorkloadOp::Kind::kDelete: {
      if (db->r1_rids.size() <= mix.min_r1_tuples) break;  // skipped
      Result<rel::Relation*> r1 = db->catalog->GetRelation("R1");
      if (!r1.ok()) return r1.status();
      const std::size_t victim = rng->Uniform(db->r1_rids.size());
      const storage::RecordId rid = db->r1_rids[victim];
      Tuple old_tuple;
      {
        storage::MeteringGuard guard(db->disk.get());
        Result<Tuple> read = r1.ValueOrDie()->Read(rid);
        if (!read.ok()) return read.status();
        old_tuple = read.TakeValueOrDie();
        PROCSIM_RETURN_IF_ERROR(r1.ValueOrDie()->Delete(rid));
      }
      db->r1_rids[victim] = db->r1_rids.back();
      db->r1_rids.pop_back();
      result.changes.emplace_back(std::move(old_tuple), std::nullopt);
      result.applied = true;
      g_deletes->Add();
      break;
    }
  }
  return result;
}

Result<std::string> OracleResultBytes(Database* db, proc::ProcId id) {
  storage::MeteringGuard guard(db->disk.get());
  Result<std::vector<Tuple>> oracle =
      db->executor->Execute(db->procedures[id].query);
  if (!oracle.ok()) return oracle.status();
  return CanonicalResultBytes(oracle.ValueOrDie());
}

}  // namespace procsim::sim
